#include "core/dynamic_controller.hpp"

#include <gtest/gtest.h>

namespace mobcache {
namespace {

/// Demand whose hits saturate at `need` ways: hits grow linearly up to
/// `need`, flat afterwards (a working set of exactly `need` ways).
ModeDemand saturating_demand(std::uint32_t need, std::uint64_t per_way,
                             std::uint64_t misses, std::uint32_t depth = 16) {
  ModeDemand d;
  d.hits_with.resize(depth + 1, 0);
  for (std::uint32_t w = 1; w <= depth; ++w)
    d.hits_with[w] = per_way * std::min(w, need);
  d.monitor_accesses = d.hits_with[depth] + misses;
  d.accesses = d.monitor_accesses;
  d.misses = misses;
  d.epoch_cycles = 1'000'000;
  return d;
}

/// HillClimb sees only the epoch's accesses and misses: 1000 accesses.
ModeDemand hill_demand(std::uint64_t misses) {
  ModeDemand d;
  d.hits_with.resize(17, 0);
  d.accesses = 1000;
  d.misses = misses;
  return d;
}

ControllerConfig base_cfg() {
  ControllerConfig c;
  c.max_step = 16;  // undamped unless a test opts in
  return c;
}

/// A controller over 16 ways; `way_leak_mw` feeds the energy criterion.
DynamicPartitionController make(const ControllerConfig& cfg,
                                double way_leak_mw = 0.0) {
  return DynamicPartitionController(cfg, 16, way_leak_mw);
}

TEST(Controller, InitialAllocationIsEvenSplit) {
  DynamicPartitionController c = make(base_cfg());
  EXPECT_EQ(c.current().user_ways, 8u);
  EXPECT_EQ(c.current().kernel_ways, 8u);
}

TEST(Controller, ShrinksToSaturationPoint) {
  DynamicPartitionController c = make(base_cfg());
  const WayAllocation a =
      c.decide(saturating_demand(4, 1000, 100), saturating_demand(2, 500, 50));
  EXPECT_EQ(a.user_ways, 4u);
  EXPECT_EQ(a.kernel_ways, 2u);
}

TEST(Controller, MissSlackAllowsDroppingMarginalWays) {
  // Hits: 10000 at 4 ways, +2 more per way after that (weak tail). With
  // 1024 full misses and 5% slack (~51 hits of allowance), the 24 tail
  // hits are inside the slack, so the allocation collapses to 4 ways.
  ModeDemand d;
  d.hits_with.resize(17, 0);
  for (std::uint32_t w = 1; w <= 16; ++w)
    d.hits_with[w] = w <= 4 ? 2500ull * w : 10000ull + 2ull * (w - 4);
  d.monitor_accesses = d.hits_with[16] + 1024;
  d.accesses = d.monitor_accesses;
  d.epoch_cycles = 1'000'000;

  DynamicPartitionController c = make(base_cfg());
  const WayAllocation a = c.decide(d, saturating_demand(1, 10, 10));
  EXPECT_EQ(a.user_ways, 4u);
}

TEST(Controller, ZeroSlackKeepsEveryUsefulWay) {
  ControllerConfig cfg = base_cfg();
  cfg.miss_slack = 0.0;
  DynamicPartitionController c = make(cfg);
  ModeDemand d;
  d.hits_with.resize(17, 0);
  for (std::uint32_t w = 1; w <= 16; ++w) d.hits_with[w] = 100ull * w;
  d.monitor_accesses = d.hits_with[16] + 500;
  d.accesses = d.monitor_accesses;
  d.epoch_cycles = 1'000'000;
  const WayAllocation a = c.decide(d, saturating_demand(1, 10, 10));
  EXPECT_EQ(a.user_ways, 16u - a.kernel_ways)
      << "strictly increasing utility with zero slack wants all it can get";
}

TEST(Controller, MinWaysRespectedOnIdleMode) {
  DynamicPartitionController c = make(base_cfg());
  ModeDemand idle;  // no accesses at all
  idle.hits_with.resize(17, 0);
  const WayAllocation a = c.decide(saturating_demand(4, 100, 10), idle);
  EXPECT_EQ(a.kernel_ways, 1u) << "an idle mode keeps the one-way floor";
}

TEST(Controller, OversubscriptionArbitratedByMarginalUtility) {
  // Both want 12 ways; user's marginal hits are much larger, so the kernel
  // side should absorb the shrink.
  DynamicPartitionController c = make(base_cfg());
  const WayAllocation a = c.decide(saturating_demand(12, 10'000, 100),
                                   saturating_demand(12, 10, 100));
  EXPECT_EQ(a.total(), 16u);
  EXPECT_GT(a.user_ways, a.kernel_ways);
}

TEST(Controller, DampingLimitsStepPerEpoch) {
  ControllerConfig cfg = base_cfg();
  cfg.max_step = 1;
  DynamicPartitionController c = make(cfg);  // starts 8/8
  const WayAllocation a =
      c.decide(saturating_demand(2, 1000, 10), saturating_demand(2, 1000, 10));
  EXPECT_EQ(a.user_ways, 7u);
  EXPECT_EQ(a.kernel_ways, 7u);
  const WayAllocation b =
      c.decide(saturating_demand(2, 1000, 10), saturating_demand(2, 1000, 10));
  EXPECT_EQ(b.user_ways, 6u);
  EXPECT_EQ(b.kernel_ways, 6u);
}

TEST(Controller, ConvergesUnderDamping) {
  ControllerConfig cfg = base_cfg();
  cfg.max_step = 1;
  DynamicPartitionController c = make(cfg);
  WayAllocation a = c.current();
  for (int i = 0; i < 20; ++i)
    a = c.decide(saturating_demand(5, 1000, 50), saturating_demand(2, 800, 40));
  EXPECT_EQ(a.user_ways, 5u);
  EXPECT_EQ(a.kernel_ways, 2u);
}

TEST(Controller, EnergyCriterionTrimsUnprofitableWays) {
  ControllerConfig cfg = base_cfg();
  cfg.miss_slack = 0.0;  // miss guard alone would keep everything
  cfg.use_energy_criterion = true;
  DynamicPartitionController c = make(cfg, /*way_leak_mw=*/20.0);

  // Each way earns 100 hits per 1 M-cycle epoch. A way's leakage is
  // 20 mW × 1 M cycles = 20 µJ; 100 hits save 1.8 µJ of DRAM — every
  // marginal way is unprofitable, so trim to the minimum.
  ModeDemand weak;
  weak.hits_with.resize(17, 0);
  for (std::uint32_t w = 1; w <= 16; ++w) weak.hits_with[w] = 100ull * w;
  weak.monitor_accesses = weak.hits_with[16] + 100;
  weak.accesses = weak.monitor_accesses;
  weak.epoch_cycles = 1'000'000;

  const WayAllocation a = c.decide(weak, weak);
  EXPECT_EQ(a.user_ways, 1u);
  EXPECT_EQ(a.kernel_ways, 1u);
}

TEST(Controller, HillClimbGrowsOnDegradationShrinksOnSchedule) {
  ControllerConfig cfg = base_cfg();
  cfg.monitor = MonitorKind::HillClimb;
  DynamicPartitionController c = make(cfg);

  // Epochs 1-3 establish the best miss rate (10%); the trial shrink waits
  // for the fourth epoch.
  WayAllocation a;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    a = c.decide(hill_demand(100), hill_demand(100));
    EXPECT_EQ(a.user_ways, 8u) << "epoch " << epoch;
  }
  // Epoch 4: stable → scheduled trial shrink.
  a = c.decide(hill_demand(100), hill_demand(100));
  EXPECT_EQ(a.user_ways, 7u);
  EXPECT_EQ(a.kernel_ways, 7u);
  // Epoch 5: 4% above the best miss rate is inside the 5% tolerance.
  a = c.decide(hill_demand(104), hill_demand(100));
  EXPECT_EQ(a.user_ways, 7u);
  // Epoch 6: 6% above it → grow back.
  a = c.decide(hill_demand(106), hill_demand(100));
  EXPECT_EQ(a.user_ways, 8u);
  EXPECT_EQ(a.kernel_ways, 7u);
}

TEST(Controller, HillClimbShrinksNoFurtherThanOneWay) {
  ControllerConfig cfg = base_cfg();
  cfg.monitor = MonitorKind::HillClimb;
  DynamicPartitionController c = make(cfg);
  // A trial shrink every fourth epoch takes 8 ways to 1 in 28 epochs.
  WayAllocation a;
  for (int epoch = 1; epoch <= 40; ++epoch)
    a = c.decide(hill_demand(100), hill_demand(100));
  EXPECT_EQ(a.user_ways, 1u);
  EXPECT_EQ(a.kernel_ways, 1u);
}

TEST(Controller, TotalNeverExceedsBudget) {
  DynamicPartitionController c = make(base_cfg());
  for (std::uint32_t u = 1; u <= 16; ++u) {
    const WayAllocation a = c.decide(saturating_demand(u, 500, 100),
                                     saturating_demand(17 - u, 500, 100));
    EXPECT_LE(a.total(), 16u);
    EXPECT_GE(a.user_ways, 1u);
    EXPECT_GE(a.kernel_ways, 1u);
  }
}

}  // namespace
}  // namespace mobcache
