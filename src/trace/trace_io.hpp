#pragma once
/// \file trace_io.hpp
/// Compact binary on-disk trace format (".mct" — mobcache trace).
///
/// Layout (little endian):
///   magic   u64  'MOBCACH1'
///   name_len u32, name bytes
///   count   u64
///   count × { addr u64, pc-reserved u64=0, type u8, mode u8, thread u16,
///             pad u32 }
///
/// The fixed 24-byte record keeps reads/writes trivially seekable; traces at
/// the scales used here (≤ tens of millions of records) load in well under a
/// second.
///
/// Every reader classifies its failures (TraceReadResult), so tools can
/// print an actionable diagnostic and exit nonzero instead of silently
/// regenerating a workload.

#include <optional>
#include <string>

#include "trace/trace.hpp"

namespace mobcache {

/// Why a trace failed to load. Every reader maps low-level stream errors to
/// exactly one of these, with a human-readable `detail` alongside.
enum class TraceIoStatus : std::uint8_t {
  Ok,
  FileNotFound,       ///< the path could not be opened at all
  BadMagic,           ///< first 8 bytes match neither .mct nor .mctz
  CorruptHeader,      ///< header fields truncated or self-inconsistent
  TruncatedRecords,   ///< header promises more records than the file holds
  BadRecord,          ///< a record decoded to out-of-range fields
  InconsistentModes,  ///< record modes contradict their address halves
};

const char* to_string(TraceIoStatus s);

/// Result of a detailed read: `trace` is engaged iff `status == Ok`;
/// otherwise `detail` carries a one-line diagnostic suitable for stderr.
struct TraceReadResult {
  TraceIoStatus status = TraceIoStatus::Ok;
  std::string detail;
  std::optional<Trace> trace;

  bool ok() const { return status == TraceIoStatus::Ok; }
};

/// On-disk magic of the flat format ("MOBCACH1").
inline constexpr std::uint64_t kTraceMagic = 0x3148434143424f4dull;

/// Writes the trace; returns false on I/O failure.
bool write_trace(const Trace& trace, const std::string& path);

/// Loads a trace with a typed failure classification: a missing file, bad
/// magic, truncation, or a record whose mode contradicts its address half.
/// Validates the record count against the file size *before* reserving, so
/// a corrupt header can never drive a multi-gigabyte allocation.
TraceReadResult read_trace_detailed(const std::string& path);

}  // namespace mobcache
