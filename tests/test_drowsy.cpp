#include "core/drowsy_l2.hpp"

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

CacheConfig cfg() {
  CacheConfig c;
  c.name = "L2";
  c.size_bytes = 256ull << 10;
  c.assoc = 8;
  return c;
}

TEST(Drowsy, FirstAccessPaysWakeLatency) {
  static_assert(DrowsyL2::kWindow == 4000 && DrowsyL2::kWakeLatency == 2);
  DrowsyL2 l2(cfg());
  const TechParams sram = make_sram(256ull << 10);
  // Fill, then hit within the same window: the line is already awake, up
  // to the window's last cycle.
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  const L2Result warm = l2.access(0x1000, AccessType::Read, Mode::User, 10);
  EXPECT_EQ(warm.latency, sram.read_latency);
  const L2Result last = l2.access(0x1000, AccessType::Read, Mode::User, 3999);
  EXPECT_EQ(last.latency, sram.read_latency);

  // At the 4000-cycle boundary everything is drowsy again.
  const L2Result cold = l2.access(0x1000, AccessType::Read, Mode::User, 4000);
  EXPECT_EQ(cold.latency, sram.read_latency + 2);
  EXPECT_EQ(l2.wakeups(), 2u);  // fill wake + re-wake
}

TEST(Drowsy, IdleCacheLeaksAtDrowsyFloor) {
  DrowsyL2 l2(cfg());
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  // A long idle period: essentially every window has zero awake lines.
  l2.finalize(10'000'000);
  EXPECT_NEAR(l2.avg_leak_fraction(), 0.25, 0.01);
  const TechParams sram = make_sram(256ull << 10);
  EXPECT_NEAR(l2.energy().leakage_nj,
              sram.leakage_nj(10'000'000) * l2.avg_leak_fraction(),
              sram.leakage_nj(10'000'000) * 0.01);
}

TEST(Drowsy, HeavyTrafficRaisesLeakTowardAwake) {
  DrowsyL2 l2(cfg());
  // Touch a distinct line every cycle: each 4000-cycle window wakes 4000
  // of the 4096 lines.
  Cycle now = 0;
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    l2.access((i % 4096) * kLineSize, AccessType::Read, Mode::User, now);
    now += 1;
  }
  l2.finalize(now);
  EXPECT_GT(l2.avg_leak_fraction(), 0.5);
  EXPECT_LT(l2.avg_leak_fraction(), 1.0);
}

TEST(Drowsy, StatePreservedAcrossWindows) {
  // Unlike retention expiry, drowsy mode keeps data: a hit after many
  // windows is still a hit.
  DrowsyL2 l2(cfg());
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  const L2Result r = l2.access(0x1000, AccessType::Read, Mode::User, 50'000);
  EXPECT_TRUE(r.hit);
}

TEST(Drowsy, SchemeFactoryIntegration) {
  auto l2 = build_scheme(SchemeKind::DrowsySram);
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->capacity_bytes(), 2ull << 20);
  EXPECT_NE(l2->describe().find("drowsy"), std::string::npos);
}

TEST(Drowsy, SavesLeakageButLessThanPartitionedStt) {
  const Trace t = generate_app_trace(AppId::Launcher, 300'000, 11);
  const SimResult base = simulate(t, build_scheme(SchemeKind::BaselineSram));
  const SimResult drowsy = simulate(t, build_scheme(SchemeKind::DrowsySram));
  const SimResult mrstt =
      simulate(t, build_scheme(SchemeKind::StaticPartMrstt));

  const double drowsy_ratio =
      drowsy.l2_energy.cache_nj() / base.l2_energy.cache_nj();
  const double mrstt_ratio =
      mrstt.l2_energy.cache_nj() / base.l2_energy.cache_nj();
  // Drowsy must save a lot of leakage...
  EXPECT_LT(drowsy_ratio, 0.7);
  // ...but the paper's design must go further.
  EXPECT_LT(mrstt_ratio, drowsy_ratio);
  // Drowsy keeps the baseline's miss rate (same geometry).
  EXPECT_NEAR(drowsy.l2_miss_rate(), base.l2_miss_rate(), 1e-9);
}

TEST(Drowsy, WakeupsBoundedByAccessesPlusFills) {
  const Trace t = generate_app_trace(AppId::Email, 100'000, 3);
  CacheConfig c = cfg();
  c.size_bytes = 2ull << 20;
  c.assoc = 16;
  DrowsyL2 l2(c);
  const SimResult r = simulate(t, l2);
  EXPECT_GT(l2.wakeups(), 0u);
  EXPECT_LE(l2.wakeups(), r.l2.total_accesses() + r.l2.prefetch_fills +
                              r.l2.fills + r.l2.writebacks + 100);
}

}  // namespace
}  // namespace mobcache
