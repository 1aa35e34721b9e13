#pragma once
/// \file dynamic_controller.hpp
/// Epoch-based way-allocation policy for the dynamically partitioned L2
/// (paper technique 3), factored out of the cache so it is unit-testable.
///
/// Primary policy (ShadowUtility): per mode, a sampled shadow-tag monitor
/// reports how many hits an allocation of w ways would have captured this
/// epoch. The controller picks, per mode, the smallest w whose miss count
/// stays within `miss_slack` of what the full depth would achieve — the
/// paper's "minimize overall cache size while maintaining similar miss
/// rate" objective stated directly on misses. An optional energy criterion
/// additionally trims ways whose marginal hits no longer pay their leakage.
/// If demands collide, ways go to whichever mode gains more hits per way
/// (UCP-style greedy arbitration).
///
/// Ablation policy (HillClimb): ±1-way feedback on per-mode miss rates,
/// no shadow tags — cheaper hardware, slower to converge (experiment E10).

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mobcache {

enum class MonitorKind : std::uint8_t { ShadowUtility, HillClimb };

constexpr std::string_view to_string(MonitorKind m) {
  return m == MonitorKind::ShadowUtility ? "shadow-utility" : "hill-climb";
}

/// Per-mode demand measured over one epoch.
struct ModeDemand {
  /// hits_with[w] = hits a w-way allocation would have captured (w = 0 must
  /// be 0; size = max ways + 1).
  std::vector<std::uint64_t> hits_with;
  /// Accesses as seen by the same monitor that produced hits_with (same
  /// sampling/scaling, so hits and misses are directly comparable).
  std::uint64_t monitor_accesses = 0;
  std::uint64_t accesses = 0;   ///< demand accesses this epoch
  std::uint64_t misses = 0;     ///< actual misses this epoch (HillClimb)
  Cycle epoch_cycles = 0;       ///< measured cycle span of the epoch
};

struct WayAllocation {
  std::uint32_t user_ways = 0;
  std::uint32_t kernel_ways = 0;
  std::uint32_t total() const { return user_ways + kernel_ways; }
};

/// The controller's policy choices (E10 ablates each).
struct ControllerConfig {
  MonitorKind monitor = MonitorKind::ShadowUtility;
  /// Allowed relative growth in (shadow-projected) misses vs. the
  /// full-depth allocation: w is the smallest way count with
  /// misses(w) <= misses(full) * (1 + miss_slack).
  double miss_slack = 0.05;
  /// Optional criterion (b): trim ways whose marginal hits no longer pay
  /// their leakage. Off by default — it deliberately trades miss rate for
  /// energy, beyond the paper's "similar miss rate" constraint (E10 ablates
  /// it). The per-epoch threshold is one way's static power × measured
  /// epoch cycles (1 GHz ⇒ mW·cycle = pJ), against a DRAM access
  /// (tech_constants::kDramAccessNj) per marginal hit.
  bool use_energy_criterion = false;
  /// Damping: each segment moves toward its target by at most this many
  /// ways per epoch, avoiding bulk flushes on phase changes (set to the
  /// way count to disable; E10 ablates this).
  std::uint32_t max_step = 1;
};

class DynamicPartitionController {
 public:
  /// Splits `total_ways` ways; `way_leak_mw` is the static power of one
  /// way (mW), which only the energy criterion reads.
  DynamicPartitionController(const ControllerConfig& cfg,
                             std::uint32_t total_ways, double way_leak_mw);

  const ControllerConfig& config() const { return cfg_; }

  /// Computes next epoch's allocation from this epoch's demands.
  WayAllocation decide(const ModeDemand& user, const ModeDemand& kernel);

  /// Last decision (initial allocation before any decide(): an even split).
  WayAllocation current() const { return current_; }

 private:
  std::uint32_t utility_ways(const ModeDemand& d) const;
  WayAllocation decide_utility(const ModeDemand& user,
                               const ModeDemand& kernel) const;
  WayAllocation decide_hill(const ModeDemand& user, const ModeDemand& kernel);

  ControllerConfig cfg_;
  std::uint32_t total_ways_;
  double way_leak_mw_;
  WayAllocation current_;
  // HillClimb state.
  double best_miss_rate_[2] = {1.0, 1.0};
  std::uint32_t epochs_since_shrink_ = 0;
};

}  // namespace mobcache
