#pragma once
/// \file events.hpp
/// Structured simulation events. Event structs are plain data stamped with
/// the simulated cycle; a Telemetry session (obs/telemetry) folds each into
/// its metrics and hands it to its TraceSink (obs/trace_export), which
/// writes it as JSONL or Chrome trace_event records.

#include <cstdint>
#include <string>

#include "cache/set_assoc_cache.hpp"  // EvictionEvent
#include "common/types.hpp"

namespace mobcache {

/// Dynamic-partition way reallocation (epoch boundary, technique 3).
struct PartitionResizeEvent {
  Cycle cycle = 0;
  std::uint32_t old_user_ways = 0;
  std::uint32_t old_kernel_ways = 0;
  std::uint32_t new_user_ways = 0;
  std::uint32_t new_kernel_ways = 0;
  /// Dirty blocks flushed because their way powered off.
  std::uint64_t flush_writebacks = 0;
};

/// Drowsy-cache window transition: lines dropped to the low-voltage state
/// at a window boundary, and how many had been woken during the window.
struct DrowsyTransitionEvent {
  Cycle cycle = 0;
  std::uint64_t lines_drowsed = 0;   ///< awake lines put back to sleep
  std::uint64_t wakeups = 0;         ///< wake transitions during the window
};

/// One maintenance pass of the STT-RAM scrub/expiry engine that did work.
struct RefreshBurstEvent {
  Cycle cycle = 0;
  std::uint64_t refreshed = 0;       ///< blocks rewritten in place
  std::uint64_t expired_clean = 0;
  std::uint64_t expired_dirty = 0;   ///< expiries that cost a DRAM writeback
  std::uint64_t repaired = 0;        ///< faulty blocks healed by the scrub
  std::uint64_t fault_lost = 0;      ///< uncorrectable blocks the scrub found
};

/// A detected fault consumed on the read path (fault subsystem; silent
/// corruptions are by definition not observable, so they never appear here).
struct FaultEvent {
  Cycle cycle = 0;
  Addr line = 0;
  Mode mode = Mode::User;                ///< requester that hit the fault
  FaultReadOutcome outcome = FaultReadOutcome::Corrected;
  bool dirty_lost = false;               ///< Lost block held dirty data
};

/// The RepairController took a weak way out of service.
struct WayQuarantineEvent {
  Cycle cycle = 0;
  std::string segment;                   ///< cache array name
  std::uint32_t way = 0;
  std::uint32_t faults = 0;              ///< fault count that triggered it
  std::uint32_t healthy_ways = 0;        ///< ways still in service after
  std::uint64_t flush_writebacks = 0;    ///< dirty blocks drained to DRAM
};

/// Stream write-bypass verdict for a predicted-dead fill (E18).
struct BypassDecisionEvent {
  Cycle cycle = 0;
  Addr line = 0;
  Mode mode = Mode::User;
  bool bypassed = false;  ///< false = probe install (predictor recovery)
};

/// Per-epoch snapshot: a DP repartition epoch, or one interval of the
/// simulator's trace-cadence sampler.
struct EpochSample {
  Cycle cycle = 0;          ///< end of the sampled interval
  std::uint64_t accesses = 0;  ///< L2 demand accesses in the interval
  std::uint64_t misses = 0;
  double miss_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(accesses);
  }
  std::uint32_t user_ways = 0;    ///< 0 for un-partitioned schemes
  std::uint32_t kernel_ways = 0;
  double enabled_bytes = 0.0;     ///< powered capacity at sample time
  std::uint64_t drowsy_awake_lines = 0;  ///< drowsy scheme only
};

}  // namespace mobcache
