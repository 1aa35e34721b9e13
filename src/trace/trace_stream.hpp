#pragma once
/// \file trace_stream.hpp
/// Chunked trace streaming: produce and consume a session's access sequence
/// in fixed-size chunks so the full Trace never has to exist in memory.
///
/// A TraceStream yields the *exact* record sequence its materialized
/// counterpart would produce — the batch entry points (generate_trace,
/// generate_scenario) are implemented as "drain the stream", so the two
/// paths cannot drift (identity by construction, pinned by
/// tests/test_trace_stream.cpp). The consumer, simulate(), processes one
/// chunk at a time and polls supervision at chunk boundaries, which keeps
/// peak memory at O(kStreamChunkRecords) per live stream instead of
/// O(session length).
/// That bound is what makes the E22 fleet sweep (docs/SWEEP_ENGINE.md,
/// EXPERIMENTS.md) possible: session count is limited by compute, not RAM.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace mobcache {

/// Soft chunk size in records. Generator streams fill at least this many
/// records per chunk (the last loop iteration may overshoot by one emission
/// unit — a user burst or kernel episode — so chunks stay aligned with the
/// generators' natural emission granularity). Matches the supervision poll
/// stride: one chunk ≈ one kCancelPollStride block of the materialized
/// demand loop, so the streaming and batch paths poll at the same cadence.
/// AppTraceStream, which feeds only materialize() and a scenario's internal
/// per-app sources, never simulate(), emits smaller chunks
/// (workload/generator.cpp says why).
inline constexpr std::size_t kStreamChunkRecords = std::size_t{1} << 16;

/// Process-wide streaming counters, surfaced by `simrun --metrics` as the
/// stream.* group. Relaxed atomics under the hood: cheap enough to leave on.
struct StreamCounters {
  std::uint64_t chunks_generated = 0;   ///< chunks published by any stream
  std::uint64_t chunk_reuse_hits = 0;   ///< refills that reused a buffer
  std::uint64_t high_water_chunk_bytes = 0;  ///< max live chunk-buffer bytes
};

/// Snapshot of the process-wide counters.
StreamCounters stream_counters();
/// Test hook: zeroes the process-wide counters.
void reset_stream_counters();

/// A restartable, chunked producer of trace records. Chunks are views into
/// stream-owned storage: a chunk stays valid until the next call to
/// next_chunk() or reset() on the same stream.
class TraceStream {
 public:
  virtual ~TraceStream() = default;

  /// Workload name (what SimResult::workload reports).
  virtual const std::string& name() const = 0;

  /// The next chunk of records; empty exactly when the stream is exhausted.
  virtual std::span<const Access> next_chunk() = 0;

  /// Rewinds to the beginning: the stream replays the identical record
  /// sequence (same seed, same state machine).
  virtual void reset() = 0;
};

/// Reusable chunk storage for generator-backed streams. Owns one flat
/// vector that is cleared (capacity kept) per refill; publishing accounts
/// the chunk in the process-wide stream counters.
class ChunkBuffer {
 public:
  /// Clears for the next fill, keeping the allocation. Counts a reuse hit
  /// once the buffer's capacity survives from an earlier chunk.
  std::vector<Access>& refill();

  /// Publishes the filled buffer as the next chunk.
  std::span<const Access> publish();

 private:
  std::vector<Access> buf_;
  bool filled_once_ = false;
};

/// Adapter presenting an in-memory Trace as a stream of
/// kStreamChunkRecords-sized subspans (zero copy).
class MaterializedTraceStream final : public TraceStream {
 public:
  /// Non-owning: `trace` must outlive the stream.
  explicit MaterializedTraceStream(const Trace& trace) : trace_(&trace) {}

  const std::string& name() const override { return trace_->name(); }
  std::span<const Access> next_chunk() override;
  void reset() override { pos_ = 0; }

 private:
  const Trace* trace_;
  std::size_t pos_ = 0;
};

/// Drains `stream` into an in-memory Trace (the classic batch
/// representation). The generators' batch entry points are exactly this.
/// A nonzero `expected_records` (a generator's target) reserves that many
/// records plus 4 Ki up front: a generator stops within one emission unit
/// (a user burst or a kernel episode) past its target, so its trace is
/// allocated once instead of regrown by doubling. A longer stream still
/// drains whole, at the cost of one regrowth.
Trace materialize(TraceStream& stream, std::size_t expected_records = 0);

}  // namespace mobcache
