#include "sim/multicore.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

MulticoreL2Config mc_cfg(std::uint32_t cores = 2) {
  MulticoreL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 2ull << 20;
  c.cache.assoc = 16;
  c.cores = cores;
  return c;
}

TEST(MulticoreL2, InitialAllocationCoversAllGroups) {
  MulticoreDynamicL2 l2(mc_cfg(3));
  EXPECT_EQ(l2.groups(), 4u);
  std::uint32_t total = 0;
  for (std::uint32_t g = 0; g < l2.groups(); ++g) {
    EXPECT_GE(l2.group_ways(g), 1u);
    total += l2.group_ways(g);
  }
  EXPECT_LE(total, 16u);
}

TEST(MulticoreL2, KernelGroupSharedAcrossCores) {
  MulticoreDynamicL2 l2(mc_cfg(2));
  // Core 0 fills a kernel line; core 1 must hit the same line (one kernel).
  l2.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel, 0, 0);
  const L2Result r =
      l2.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel, 1, 10);
  EXPECT_TRUE(r.hit);
}

TEST(MulticoreL2, UserGroupsIsolatedBetweenCores) {
  MulticoreDynamicL2 l2(mc_cfg(2));
  // Same user line address from different cores lands in different groups:
  // no false sharing even with identical addresses.
  l2.access(0x1000, AccessType::Read, Mode::User, 0, 0);
  const L2Result r = l2.access(0x1000, AccessType::Read, Mode::User, 1, 10);
  EXPECT_FALSE(r.hit) << "cross-core user hit would be a protection bug";
}

TEST(MulticoreL2, HammeringOneCoreDoesNotEvictAnother) {
  MulticoreDynamicL2 l2(mc_cfg(2));
  l2.access(0x4000, AccessType::Read, Mode::User, 0, 0);
  // Core 1 streams heavily within one epoch (no reallocation yet).
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    l2.access(0x100000 + i * kLineSize, AccessType::Read, Mode::User, 1,
              10 + i);
  }
  const L2Result r =
      l2.access(0x4000, AccessType::Read, Mode::User, 0, 100'000);
  EXPECT_TRUE(r.hit) << "core 1's stream evicted core 0's user block";
}

TEST(MulticoreL2, ReallocatesTowardDemand) {
  MulticoreDynamicL2 l2(mc_cfg(2));
  Cycle now = 0;
  // Core 0 works a large user set; core 1 idles; kernel light.
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    l2.access((i % 12'288) * kLineSize, AccessType::Read, Mode::User, 0, now);
    if (i % 16 == 0)
      l2.access(kKernelSpaceBase + (i % 512) * kLineSize, AccessType::Read,
                Mode::Kernel, 0, now);
    now += 10;
  }
  l2.finalize(now);
  EXPECT_GT(l2.reconfigurations(), 0u);
  EXPECT_GT(l2.group_ways(1), l2.group_ways(2))
      << "busy core 0 should hold more user ways than idle core 1";
  EXPECT_LT(l2.avg_enabled_bytes(), 2.0 * 1024 * 1024);
}

TEST(MulticoreSim, RunsTwoCoresToCompletion) {
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Browser, 60'000, 5));
  traces.push_back(generate_app_trace(AppId::Game, 60'000, 6));

  auto l2 = std::make_unique<MulticoreDynamicL2>(mc_cfg(2));
  const MulticoreResult r = simulate_multicore(traces, std::move(l2));

  ASSERT_EQ(r.cores.size(), 2u);
  EXPECT_EQ(r.cores[0].records, traces[0].size());
  EXPECT_EQ(r.cores[1].records, traces[1].size());
  EXPECT_EQ(r.makespan, std::max(r.cores[0].cycles, r.cores[1].cycles));
  EXPECT_GT(r.l2.total_accesses(), 0u);
  EXPECT_GT(r.l2_energy.cache_nj(), 0.0);
  EXPECT_LE(r.l2_avg_enabled_bytes, 2.0 * 1024 * 1024);
}

TEST(MulticoreSim, ModeOnlyAdapterMatchesSingleCoreBehavior) {
  // With one core and the adapter, the multicore driver must agree with
  // the single-core simulator on L2 demand accesses.
  const Trace t = generate_app_trace(AppId::Email, 50'000, 7);

  const SimResult single = simulate(t, build_scheme(SchemeKind::BaselineSram));

  std::vector<Trace> traces{t};
  auto adapter = std::make_unique<ModeOnlyL2Adapter>(
      build_scheme(SchemeKind::BaselineSram));
  const MulticoreResult multi =
      simulate_multicore(traces, std::move(adapter));

  // Core 0's user slot offset shifts addresses but not line/set structure
  // (the slot stride is set-aligned), so demand counts match exactly.
  EXPECT_EQ(multi.l2.total_accesses(), single.l2.total_accesses());
  EXPECT_EQ(multi.l2.total_hits(), single.l2.total_hits());
  EXPECT_EQ(multi.makespan, single.cycles);
}

TEST(MulticoreSim, SharedL2SuffersCrossCoreInterference) {
  // The multicore motivation: two cores through a mode-oblivious shared L2
  // interfere; the grouped dynamic design isolates them.
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Launcher, 150'000, 8));
  traces.push_back(generate_app_trace(AppId::Email, 150'000, 9));

  auto shared = std::make_unique<ModeOnlyL2Adapter>(
      build_scheme(SchemeKind::BaselineSram));
  const MulticoreResult rs = simulate_multicore(traces, std::move(shared));

  auto grouped = std::make_unique<MulticoreDynamicL2>(mc_cfg(2));
  const MulticoreResult rg = simulate_multicore(traces, std::move(grouped));

  // The grouped design must save a large fraction of energy at a bounded
  // miss-rate cost.
  EXPECT_LT(rg.l2_energy.cache_nj(), 0.5 * rs.l2_energy.cache_nj());
  EXPECT_LT(rg.l2_miss_rate(), rs.l2_miss_rate() + 0.08);
}

TEST(MulticoreSim, Deterministic) {
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Launcher, 40'000, 2));
  traces.push_back(generate_app_trace(AppId::AudioPlayer, 40'000, 3));
  const MulticoreResult a = simulate_multicore(
      traces, std::make_unique<MulticoreDynamicL2>(mc_cfg(2)));
  const MulticoreResult b = simulate_multicore(
      traces, std::make_unique<MulticoreDynamicL2>(mc_cfg(2)));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.l2_energy.total_nj(), b.l2_energy.total_nj());
}

}  // namespace
}  // namespace mobcache
