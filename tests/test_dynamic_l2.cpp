#include "core/dynamic_partitioned_l2.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

DynamicL2Config cfg(TechKind tech = TechKind::Sram) {
  DynamicL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 2ull << 20;
  c.cache.assoc = 16;
  c.tech = tech;
  c.retention = RetentionClass::Lo;
  c.epoch_accesses = 2'000;  // short epochs so tests converge fast
  return c;
}

/// Drives a skewed two-mode stream: user loops over `user_lines` lines,
/// kernel over `kernel_lines`.
void drive(DynamicPartitionedL2& l2, std::uint64_t user_lines,
           std::uint64_t kernel_lines, std::uint64_t accesses, Cycle& now,
           std::uint64_t seed = 1) {
  Rng rng(seed);
  for (std::uint64_t i = 0; i < accesses; ++i) {
    if (i % 2 == 0) {
      l2.access(rng.below(user_lines) * kLineSize, AccessType::Read,
                Mode::User, now);
    } else {
      l2.access(kKernelSpaceBase + rng.below(kernel_lines) * kLineSize,
                AccessType::Read, Mode::Kernel, now);
    }
    now += 10;
  }
}

TEST(DynamicL2, ReconfiguresAndShrinksForSmallWorkingSets) {
  DynamicPartitionedL2 l2(cfg());
  Cycle now = 0;
  // Tiny working sets: ~1 way each suffices.
  drive(l2, 512, 512, 60'000, now);
  l2.finalize(now);

  EXPECT_GT(l2.reconfigurations(), 0u);
  const WayAllocation a = l2.allocation();
  EXPECT_LE(a.total(), 8u) << "small demand must shrink the allocation";
  EXPECT_LT(l2.avg_enabled_bytes(), 2.0 * 1024 * 1024);
}

TEST(DynamicL2, GrowsUserSideForLargeUserDemand) {
  DynamicPartitionedL2 l2(cfg());
  Cycle now = 0;
  // User spans ~1 MB with reuse, kernel tiny.
  drive(l2, 16'384, 256, 120'000, now);
  l2.finalize(now);
  const WayAllocation a = l2.allocation();
  EXPECT_GT(a.user_ways, a.kernel_ways);
}

TEST(DynamicL2, SegmentsNeverOverlapAndStayInBudget) {
  DynamicPartitionedL2 l2(cfg());
  Cycle now = 0;
  drive(l2, 8'192, 4'096, 100'000, now);
  for (const AllocationSample& s : l2.allocation_history()) {
    EXPECT_LE(s.user_ways + s.kernel_ways, 16u);
    EXPECT_GE(s.user_ways, 1u);
    EXPECT_GE(s.kernel_ways, 1u);
  }
}

TEST(DynamicL2, AllocationHistoryCyclesMonotone) {
  DynamicPartitionedL2 l2(cfg());
  Cycle now = 0;
  drive(l2, 512, 65'536, 100'000, now);
  const auto& h = l2.allocation_history();
  for (std::size_t i = 1; i < h.size(); ++i)
    EXPECT_GE(h[i].cycle, h[i - 1].cycle);
}

TEST(DynamicL2, UserBlocksConfinedToUserWays) {
  DynamicPartitionedL2 l2(cfg());
  Cycle now = 0;
  drive(l2, 2'048, 2'048, 60'000, now);
  const WayAllocation a = l2.allocation();
  // After convergence, freshly-filled user blocks live in ways
  // [0, user_ways); kernel blocks in the top kernel_ways. Blocks in
  // transferred ways may linger (lazy handover), so only check fills from
  // the most recent epoch: every *young* block must respect the masks.
  const Cycle recent = now - 2'000 * 10;
  l2.array().for_each_valid_block([&](std::uint32_t, std::uint32_t way,
                                      const BlockMeta& b) {
    if (b.fill_cycle < recent) return;
    if (b.owner == Mode::User) {
      EXPECT_LT(way, a.user_ways);
    } else {
      EXPECT_GE(way, 16u - a.kernel_ways);
    }
  });
}

TEST(DynamicL2, PowerGatedWaysAreEmpty) {
  DynamicPartitionedL2 l2(cfg());
  Cycle now = 0;
  drive(l2, 256, 256, 60'000, now);  // tiny demand → most ways off
  const WayAllocation a = l2.allocation();
  ASSERT_LT(a.total(), 16u);
  std::uint64_t blocks_in_off_ways = 0;
  l2.array().for_each_valid_block([&](std::uint32_t, std::uint32_t way,
                                      const BlockMeta&) {
    if (way >= a.user_ways && way < 16u - a.kernel_ways) ++blocks_in_off_ways;
  });
  EXPECT_EQ(blocks_in_off_ways, 0u);
}

TEST(DynamicL2, ReconfigWritebacksReachDram) {
  DynamicL2Config c = cfg();
  c.controller.max_step = 16;  // let it slam allocations around
  DynamicPartitionedL2 l2(c);
  Cycle now = 0;
  Rng rng(3);
  // Dirty a lot of lines, then shift demand so ways power off.
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    l2.access(rng.below(16'384) * kLineSize, AccessType::Write, Mode::User,
              now);
    now += 10;
  }
  drive(l2, 128, 128, 30'000, now, 7);
  l2.finalize(now);
  EXPECT_GT(l2.reconfig_writebacks(), 0u);
  EXPECT_GT(l2.energy().dram_nj, 0.0);
}

TEST(DynamicL2, AvgEnabledTracksLeakage) {
  DynamicPartitionedL2 l2(cfg());
  Cycle now = 0;
  drive(l2, 512, 512, 60'000, now);
  l2.finalize(now);
  const double frac =
      l2.avg_enabled_bytes() / static_cast<double>(l2.capacity_bytes());
  const TechParams full = make_sram(2ull << 20);
  const double full_leak = full.leakage_nj(now);
  EXPECT_NEAR(l2.energy().leakage_nj / full_leak, frac, 0.02);
}

TEST(DynamicL2, SttVariantRefreshesDirtyBlocks) {
  DynamicL2Config c = cfg(TechKind::SttRam);
  c.refresh = RefreshPolicy::ScrubDirty;
  DynamicPartitionedL2 l2(c);
  Cycle now = 0;
  // Dirty lines, then idle time past the retention period with sparse
  // traffic that triggers the refresher.
  for (std::uint64_t i = 0; i < 64; ++i) {
    l2.access(i * kLineSize, AccessType::Write, Mode::User, now);
    now += 10;
  }
  const Cycle ret = tech_constants::kRetentionLoCycles;
  for (int i = 1; i <= 8; ++i) {
    l2.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel,
              static_cast<Cycle>(i) * ret / 2);
  }
  l2.finalize(5 * ret);
  EXPECT_GT(l2.aggregate_stats().refreshes, 0u);
  EXPECT_GT(l2.energy().refresh_nj, 0.0);
}

TEST(DynamicL2, DescribeNamesMonitorAndTech) {
  DynamicPartitionedL2 sram(cfg());
  EXPECT_NE(sram.describe().find("dynamic-partitioned"), std::string::npos);
  EXPECT_NE(sram.describe().find("SRAM"), std::string::npos);
  EXPECT_NE(sram.describe().find("shadow-utility"), std::string::npos);

  DynamicL2Config c = cfg(TechKind::SttRam);
  c.controller.monitor = MonitorKind::HillClimb;
  DynamicPartitionedL2 stt(c);
  EXPECT_NE(stt.describe().find("STT-RAM"), std::string::npos);
  EXPECT_NE(stt.describe().find("hill-climb"), std::string::npos);
}

TEST(DynamicL2, WritebacksAreNotDemandAccesses) {
  DynamicPartitionedL2 l2(cfg());
  // L1 castouts must not perturb the demand monitors' epoch counting.
  for (int i = 0; i < 100; ++i)
    l2.writeback(static_cast<Addr>(i) * kLineSize, Mode::User, i);
  EXPECT_EQ(l2.reconfigurations(), 0u);
  EXPECT_EQ(l2.aggregate_stats().total_accesses(), 100u);
}

TEST(DynamicL2, AllocationIsThePoweredSplitUnderQuarantine) {
  // Quarantine shrinks the way budget below the controller's last decision;
  // allocation() must report the split that is actually powered.
  SchemeParams p;
  p.fault = FaultConfig::from_rate(5e-3, EccKind::Secded, 1, 7);
  auto built = build_scheme(SchemeKind::DynamicStt, p);
  auto& l2 = dynamic_cast<DynamicPartitionedL2&>(*built);
  simulate(generate_app_trace(AppId::Browser, 20'000, 7), l2);
  ASSERT_GT(l2.quarantined_ways(), 8u);
  EpochSample s;
  l2.fill_sample(s);
  const WayAllocation a = l2.allocation();
  EXPECT_EQ(a.user_ways, s.user_ways);
  EXPECT_EQ(a.kernel_ways, s.kernel_ways);
  EXPECT_LE(a.total(), 16u - l2.quarantined_ways());
}

}  // namespace
}  // namespace mobcache
