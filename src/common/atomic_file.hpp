#pragma once
/// \file atomic_file.hpp
/// Checked whole-file writes, and crash-safe file publication: stream to a
/// `.tmp-*` sibling, fsync, then rename() into place. This is the
/// durability idiom of the result store's records, kept in one audited
/// place. Readers of a published name never observe a half-written file; a
/// crash leaves at most a `.tmp-*` orphan, which owners sweep on startup.

#include <string>

namespace mobcache {

/// Writes `bytes` to `path`, replacing its content. Returns false unless
/// the open, the write, the flush and the close all succeed, so a device
/// that fails only when the buffered tail is flushed (a full disk) is
/// reported. Every artifact (CSV, JSON, trace export, metrics) is rendered
/// to a string and written through here.
bool write_file(const std::string& path, const std::string& bytes);

/// write_file(), plus a flush to stable storage (fsync on POSIX) before the
/// close. Returns false on any failure; the file may then exist partially
/// written — callers remove it (atomic_publish does).
bool write_file_synced(const std::string& path, const std::string& bytes);

/// Atomically publishes `bytes` as `final_path`: writes them synced to
/// `<parent>/.tmp-<tmp_token>`, then renames over `final_path` (replacing
/// any previous version in the same atomic step). The tmp file is removed
/// on failure. Throws std::runtime_error when the write or rename fails —
/// a caller that believes it published must actually have.
void atomic_publish(const std::string& final_path, const std::string& bytes,
                    const std::string& tmp_token);

}  // namespace mobcache
