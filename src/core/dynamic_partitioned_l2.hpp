#pragma once
/// \file dynamic_partitioned_l2.hpp
/// Dynamically partitioned L2 (paper technique 3): one physical array whose
/// ways are assigned per epoch to the user segment, the kernel segment, or
/// powered off entirely. Combined with short-retention STT-RAM this is the
/// paper's maximal-savings design (DP-STT, −85% cache energy).
///
/// Way plan: user ways grow from way 0 upward, kernel ways from the top
/// downward, the gap in the middle is power-gated. Growing one segment
/// therefore never flushes the other; only ways leaving a segment are
/// written back and invalidated.

#include <array>
#include <memory>
#include <vector>

#include "cache/shadow_monitor.hpp"
#include "core/dynamic_controller.hpp"
#include "core/l2_segment.hpp"

namespace mobcache {

struct DynamicL2Config {
  CacheConfig cache;  ///< physical array (paper: 2 MB, 16-way)
  TechKind tech = TechKind::Sram;
  RetentionClass retention = RetentionClass::Lo;  ///< STT-RAM only
  RefreshPolicy refresh = RefreshPolicy::ScrubDirty;
  /// Epoch length in L2 demand accesses between repartition decisions.
  std::uint64_t epoch_accesses = 10'000;
  ControllerConfig controller;
  /// Fault injection + ECC + way-disable repair (disabled by default).
  /// Quarantined ways shrink the controller's way budget: allocations are
  /// re-clamped to the healthy mask instead of asserting.
  FaultConfig fault;
};

/// One repartition event, kept for the E8 allocation-trace figure.
struct AllocationSample {
  Cycle cycle = 0;
  std::uint32_t user_ways = 0;
  std::uint32_t kernel_ways = 0;
};

class DynamicPartitionedL2 final : public OneSegmentL2 {
 public:
  explicit DynamicPartitionedL2(const DynamicL2Config& cfg);

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override {
    return do_access(line, type, mode, now, /*demand=*/true);
  }
  /// Castouts take the demand path without touching the epoch counters.
  void writeback(Addr line, Mode owner, Cycle now) override {
    do_access(line, AccessType::Write, owner, now, /*demand=*/false);
  }
  void prefetch(Addr line, Mode mode, Cycle now) override;
  void finalize(Cycle end) override;
  std::string describe() const override;
  void fill_sample(EpochSample& s) const override {
    s.user_ways = alloc_.user_ways;
    s.kernel_ways = alloc_.kernel_ways;
    s.enabled_bytes = seg_.powered_fraction() *
                      static_cast<double>(seg_.capacity_bytes());
  }

  /// The split currently powered (the controller's last decision, clamped
  /// to the healthy ways under fault quarantine).
  WayAllocation allocation() const { return alloc_; }
  const std::vector<AllocationSample>& allocation_history() const {
    return history_;
  }
  std::uint64_t reconfigurations() const { return history_.size(); }
  /// Dirty blocks written back because their way powered off, by a
  /// reallocation or a fault quarantine.
  std::uint64_t reconfig_writebacks() const {
    return seg_.flush_writebacks();
  }

 private:
  /// Per-mode way masks for an allocation. Fault-free this is the
  /// contiguous user-from-bottom / kernel-from-top plan; with quarantined
  /// ways the same counts are carved out of the healthy mask instead (the
  /// remap: allocations skip dead ways rather than shrinking around them).
  std::array<WayMask, kModeCount> masks_for(const WayAllocation& a) const {
    if (seg_.fault_injector() == nullptr) {
      const std::uint32_t assoc = seg_.array().assoc();
      return {way_range_mask(0, a.user_ways),
              way_range_mask(assoc - a.kernel_ways, a.kernel_ways)};
    }
    const WayMask healthy = seg_.active_mask();
    return {lowest_ways(healthy, a.user_ways),
            highest_ways(healthy, a.kernel_ways)};
  }
  /// Shrinks an allocation so it fits the healthy-way budget (a no-op
  /// without fault injection: the controller keeps to the full array). The
  /// kernel segment keeps its last way longest: kernel misses are the
  /// costlier ones in the paper's workloads.
  WayAllocation clamp_to_healthy(WayAllocation a) const;
  /// Drains pending way quarantines, re-clamping the split to the ways
  /// left, then runs the refresh tick at the larger segment's energies.
  void prologue(Cycle now, bool at_end = false);
  /// Makes `a` the powered split from `now` on: the per-mode masks and
  /// energies and the segment's powered ways follow it.
  void adopt(WayAllocation a, Cycle now);
  void maybe_epoch(Cycle now);
  void apply_allocation(WayAllocation next, Cycle now);
  const TechParams& refresh_tech() const;
  L2Result do_access(Addr line, AccessType type, Mode mode, Cycle now,
                     bool demand);

  std::uint64_t epoch_length_;
  /// Per-mode dynamic energies scaled to that segment's enabled capacity —
  /// an access only probes its own segment's ways, so its cost matches a
  /// standalone array of that size (same law as the static design).
  std::array<TechParams, kModeCount> seg_tech_{};
  DynamicPartitionController controller_;
  WayAllocation alloc_;
  std::array<WayMask, kModeCount> masks_{};  ///< masks_for(alloc_)
  ShadowTagMonitor user_monitor_;
  ShadowTagMonitor kernel_monitor_;

  std::uint64_t epoch_access_count_ = 0;
  std::uint64_t epoch_misses_[kModeCount] = {0, 0};
  std::uint64_t epoch_accesses_[kModeCount] = {0, 0};
  Cycle epoch_start_cycle_ = 0;

  std::vector<AllocationSample> history_;
};

}  // namespace mobcache
