#include "core/dynamic_controller.hpp"

#include <algorithm>

#include "energy/technology.hpp"

namespace mobcache {

namespace {

/// Ways each mode keeps whatever its demand.
constexpr std::uint32_t kMinWaysPerMode = 1;
/// HillClimb: relative miss-rate degradation that triggers growth, and
/// epochs between trial shrinks.
constexpr double kHillTolerance = 0.05;
constexpr std::uint32_t kHillShrinkPeriod = 4;

}  // namespace

DynamicPartitionController::DynamicPartitionController(
    const ControllerConfig& cfg, std::uint32_t total_ways, double way_leak_mw)
    : cfg_(cfg), total_ways_(total_ways), way_leak_mw_(way_leak_mw) {
  current_.user_ways = std::max(kMinWaysPerMode, total_ways_ / 2);
  current_.kernel_ways =
      std::max(kMinWaysPerMode, total_ways_ - current_.user_ways);
}

std::uint32_t DynamicPartitionController::utility_ways(
    const ModeDemand& d) const {
  if (d.hits_with.empty() || d.accesses == 0) return kMinWaysPerMode;
  const std::uint32_t depth =
      std::min<std::uint32_t>(total_ways_,
                              static_cast<std::uint32_t>(d.hits_with.size()) - 1);
  const auto full_hits = static_cast<double>(d.hits_with[depth]);
  const double accesses =
      std::max(static_cast<double>(d.monitor_accesses), full_hits);
  const double full_misses = accesses - full_hits;

  // (a) smallest w whose projected misses stay within the slack. Stated on
  // hits: misses(w) <= full_misses*(1+slack)  ⇔
  //       hits(w)  >= full_hits - slack*full_misses.
  const double required_hits = full_hits - cfg_.miss_slack * full_misses;
  std::uint32_t w = depth;
  for (std::uint32_t c = kMinWaysPerMode; c <= depth; ++c) {
    if (static_cast<double>(d.hits_with[c]) >= required_hits) {
      w = c;
      break;
    }
  }

  // (b) trim ways whose marginal hits no longer pay their leakage over the
  // measured epoch span (mW × cycles @1 GHz = pJ; /1e3 → nJ).
  if (cfg_.use_energy_criterion && way_leak_mw_ > 0.0 &&
      d.epoch_cycles > 0) {
    const double way_leak_nj =
        way_leak_mw_ * static_cast<double>(d.epoch_cycles) / 1e3;
    while (w > kMinWaysPerMode) {
      const double marginal =
          static_cast<double>(d.hits_with[w] - d.hits_with[w - 1]);
      if (marginal * tech_constants::kDramAccessNj >= way_leak_nj) break;
      --w;
    }
  }
  return std::max(w, kMinWaysPerMode);
}

WayAllocation DynamicPartitionController::decide_utility(
    const ModeDemand& user, const ModeDemand& kernel) const {
  WayAllocation a;
  a.user_ways = utility_ways(user);
  a.kernel_ways = utility_ways(kernel);

  // Over-subscribed: repeatedly take a way from the mode losing fewer hits.
  while (a.total() > total_ways_) {
    auto marginal = [](const ModeDemand& d, std::uint32_t w) -> double {
      if (w == 0 || w >= d.hits_with.size()) return 0.0;
      return static_cast<double>(d.hits_with[w] - d.hits_with[w - 1]);
    };
    const bool can_shrink_user = a.user_ways > kMinWaysPerMode;
    const bool can_shrink_kernel = a.kernel_ways > kMinWaysPerMode;
    if (!can_shrink_user && !can_shrink_kernel) {
      a.user_ways = total_ways_ - a.kernel_ways;  // give up gracefully
      break;
    }
    if (!can_shrink_kernel ||
        (can_shrink_user &&
         marginal(user, a.user_ways) <= marginal(kernel, a.kernel_ways))) {
      --a.user_ways;
    } else {
      --a.kernel_ways;
    }
  }
  return a;
}

WayAllocation DynamicPartitionController::decide_hill(const ModeDemand& user,
                                                      const ModeDemand& kernel) {
  WayAllocation a = current_;
  const ModeDemand* demands[2] = {&user, &kernel};
  std::uint32_t* ways[2] = {&a.user_ways, &a.kernel_ways};

  ++epochs_since_shrink_;
  const bool try_shrink = epochs_since_shrink_ >= kHillShrinkPeriod;

  for (int m = 0; m < 2; ++m) {
    const ModeDemand& d = *demands[m];
    if (d.accesses == 0) continue;
    const double mr =
        static_cast<double>(d.misses) / static_cast<double>(d.accesses);
    best_miss_rate_[m] = std::min(best_miss_rate_[m], mr);
    if (mr > best_miss_rate_[m] * (1.0 + kHillTolerance)) {
      *ways[m] += 1;  // we hurt this mode; give the way back
    } else if (try_shrink && *ways[m] > kMinWaysPerMode) {
      *ways[m] -= 1;  // probe a smaller allocation
    }
  }
  if (try_shrink) epochs_since_shrink_ = 0;

  // Clamp into the physical budget.
  a.user_ways = std::clamp(a.user_ways, kMinWaysPerMode,
                           total_ways_ - kMinWaysPerMode);
  a.kernel_ways = std::clamp(a.kernel_ways, kMinWaysPerMode,
                             total_ways_ - a.user_ways);
  return a;
}

WayAllocation DynamicPartitionController::decide(const ModeDemand& user,
                                                 const ModeDemand& kernel) {
  WayAllocation target = cfg_.monitor == MonitorKind::ShadowUtility
                             ? decide_utility(user, kernel)
                             : decide_hill(user, kernel);
  // Damped approach: large jumps flush (or cold-start) whole ways, so creep
  // toward the target instead. HillClimb already moves one way at a time.
  auto step = [&](std::uint32_t cur, std::uint32_t tgt) {
    if (tgt > cur) return cur + std::min(tgt - cur, cfg_.max_step);
    return cur - std::min(cur - tgt, cfg_.max_step);
  };
  target.user_ways = step(current_.user_ways, target.user_ways);
  target.kernel_ways = step(current_.kernel_ways, target.kernel_ways);
  while (target.total() > total_ways_) {
    if (target.user_ways > target.kernel_ways) {
      --target.user_ways;
    } else {
      --target.kernel_ways;
    }
  }
  current_ = target;
  return current_;
}

}  // namespace mobcache
