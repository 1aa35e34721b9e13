#pragma once
/// \file events.hpp
/// Structured simulation events and the ObserverHub that fans them out.
///
/// The hub generalizes the per-array eviction callback
/// (L2Interface::add_eviction_observer): any number of subscribers per event
/// type, with O(1) "anyone listening?" checks so un-observed emit sites cost
/// one branch. Event
/// structs are plain data stamped with the simulated cycle; sinks
/// (obs/trace_export) translate them to JSONL or Chrome trace_event form.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

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

/// Per-epoch time-series snapshot (see obs/timeseries.hpp for the series).
struct EpochSample {
  std::uint64_t epoch = 0;  ///< ordinal within the run
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
  double refresh_nj = 0.0;        ///< energy spent in the interval
  double leakage_nj = 0.0;
};

/// Multicast dispatch for every structured event type. Subscribe with
/// on_*(); emit() forwards to all subscribers of that type.
class ObserverHub {
 public:
  using PartitionResizeFn = std::function<void(const PartitionResizeEvent&)>;
  using DrowsyFn = std::function<void(const DrowsyTransitionEvent&)>;
  using RefreshFn = std::function<void(const RefreshBurstEvent&)>;
  using BypassFn = std::function<void(const BypassDecisionEvent&)>;
  using EvictionFn = std::function<void(const EvictionEvent&)>;
  using EpochFn = std::function<void(const EpochSample&)>;
  using FaultFn = std::function<void(const FaultEvent&)>;
  using QuarantineFn = std::function<void(const WayQuarantineEvent&)>;

  void on_partition_resize(PartitionResizeFn fn) {
    resize_.push_back(std::move(fn));
  }
  void on_drowsy_transition(DrowsyFn fn) { drowsy_.push_back(std::move(fn)); }
  void on_refresh_burst(RefreshFn fn) { refresh_.push_back(std::move(fn)); }
  void on_bypass_decision(BypassFn fn) { bypass_.push_back(std::move(fn)); }
  void on_eviction(EvictionFn fn) { evict_.push_back(std::move(fn)); }
  void on_epoch_sample(EpochFn fn) { epoch_.push_back(std::move(fn)); }
  void on_fault(FaultFn fn) { fault_.push_back(std::move(fn)); }
  void on_way_quarantine(QuarantineFn fn) {
    quarantine_.push_back(std::move(fn));
  }

  void emit(const PartitionResizeEvent& e) const {
    for (const auto& fn : resize_) fn(e);
  }
  void emit(const DrowsyTransitionEvent& e) const {
    for (const auto& fn : drowsy_) fn(e);
  }
  void emit(const RefreshBurstEvent& e) const {
    for (const auto& fn : refresh_) fn(e);
  }
  void emit(const BypassDecisionEvent& e) const {
    for (const auto& fn : bypass_) fn(e);
  }
  void emit(const EvictionEvent& e) const {
    for (const auto& fn : evict_) fn(e);
  }
  void emit(const EpochSample& e) const {
    for (const auto& fn : epoch_) fn(e);
  }
  void emit(const FaultEvent& e) const {
    for (const auto& fn : fault_) fn(e);
  }
  void emit(const WayQuarantineEvent& e) const {
    for (const auto& fn : quarantine_) fn(e);
  }

  bool wants_evictions() const { return !evict_.empty(); }

  /// Adapter for SetAssocCache::add_eviction_observer — bridges the legacy
  /// per-array callback mechanism into the hub.
  EvictionFn eviction_bridge() {
    return [this](const EvictionEvent& e) { emit(e); };
  }

 private:
  std::vector<PartitionResizeFn> resize_;
  std::vector<DrowsyFn> drowsy_;
  std::vector<RefreshFn> refresh_;
  std::vector<BypassFn> bypass_;
  std::vector<EvictionFn> evict_;
  std::vector<EpochFn> epoch_;
  std::vector<FaultFn> fault_;
  std::vector<QuarantineFn> quarantine_;
};

}  // namespace mobcache
