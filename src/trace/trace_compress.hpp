#pragma once
/// \file trace_compress.hpp
/// Compressed on-disk trace format (".mctz").
///
/// The flat .mct format spends 24 bytes per record; memory traces are
/// extremely delta-compressible (streams, loops, fixed strides). The .mctz
/// encoding stores per record:
///   meta byte  : type (2 b) | mode (1 b) | thread-changed (1 b) | reserved
///   addr delta : zigzag varint of (addr - previous addr of the same mode)
///   [thread]   : varint, only when thread-changed
/// Typical synthetic mobile traces compress 4–6× (pinned by tests), which
/// matters once traces reach hundreds of millions of records.

#include <string>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace mobcache {

/// On-disk magic of the compressed format ("MOBCACZ1").
inline constexpr std::uint64_t kTraceMagicZ = 0x315a4341'43424f4dull;

/// Writes the compressed trace; returns false on I/O failure.
bool write_trace_compressed(const Trace& trace, const std::string& path);

/// Loads a compressed trace with a typed failure classification (missing or
/// corrupt input, or a record whose mode contradicts its address half).
TraceReadResult read_trace_compressed_detailed(const std::string& path);

/// Sniffs the magic and dispatches to the matching detailed reader, so an
/// unreadable file reports *why* it is unreadable (a file whose magic
/// matches neither format is BadMagic, not two stacked nullopts).
TraceReadResult read_trace_any_detailed(const std::string& path);

}  // namespace mobcache
