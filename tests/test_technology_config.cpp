#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/scheme.hpp"
#include "energy/energy_accountant.hpp"
#include "energy/technology.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

TEST(TechnologyConfig, DefaultsMirrorConstants) {
  const TechnologyConfig c;
  EXPECT_DOUBLE_EQ(c.sram_leak_mw_per_kb, tech_constants::kSramLeakMwPerKb);
  EXPECT_DOUBLE_EQ(c.stt_leak_factor, tech_constants::kSttLeakFactor);
  EXPECT_DOUBLE_EQ(c.dram_access_nj, tech_constants::kDramAccessNj);
}

TEST(TechnologyConfig, ScopedOverrideAppliesAndRestores) {
  const double base_leak = make_sram(1ull << 20).leakage_mw;
  {
    TechnologyConfig c;
    c.sram_leak_mw_per_kb *= 3;
    ScopedTechnology scope(c);
    EXPECT_NEAR(make_sram(1ull << 20).leakage_mw, 3 * base_leak, 1e-9);
  }
  EXPECT_NEAR(make_sram(1ull << 20).leakage_mw, base_leak, 1e-12);
}

TEST(TechnologyConfig, NestedScopesUnwindCorrectly) {
  const double base = technology().dram_access_nj;
  TechnologyConfig a;
  a.dram_access_nj = 100;
  {
    ScopedTechnology sa(a);
    EXPECT_DOUBLE_EQ(technology().dram_access_nj, 100);
    TechnologyConfig b;
    b.dram_access_nj = 200;
    {
      ScopedTechnology sb(b);
      EXPECT_DOUBLE_EQ(technology().dram_access_nj, 200);
    }
    EXPECT_DOUBLE_EQ(technology().dram_access_nj, 100);
  }
  EXPECT_DOUBLE_EQ(technology().dram_access_nj, base);
}

TEST(TechnologyConfig, AccountantUsesActiveDramEnergy) {
  TechnologyConfig c;
  c.dram_access_nj = 5.0;
  ScopedTechnology scope(c);
  EnergyAccountant acct;
  acct.add_dram(4);
  EXPECT_DOUBLE_EQ(acct.breakdown().dram_nj, 20.0);
}

TEST(TechnologyConfig, SttWriteScalesWithOverride) {
  TechnologyConfig c;
  c.stt_write_nj_hi_2mb = 4.0;
  ScopedTechnology scope(c);
  EXPECT_NEAR(make_sttram(2ull << 20, RetentionClass::Hi).write_energy_nj,
              4.0, 1e-9);
}

TEST(TechnologyConfig, EndToEndEnergyRespondsToLeakageOverride) {
  const Trace t = generate_app_trace(AppId::AudioPlayer, 100'000, 9);
  const SimResult nominal =
      simulate(t, build_scheme(SchemeKind::BaselineSram));

  TechnologyConfig c;
  c.sram_leak_mw_per_kb *= 2;
  ScopedTechnology scope(c);
  const SimResult doubled =
      simulate(t, build_scheme(SchemeKind::BaselineSram));
  EXPECT_NEAR(doubled.l2_energy.leakage_nj,
              2 * nominal.l2_energy.leakage_nj,
              nominal.l2_energy.leakage_nj * 0.01);
  // Timing must be unaffected by energy constants.
  EXPECT_EQ(doubled.cycles, nominal.cycles);
}

TEST(TechnologyConfig, ConclusionSurvivesPerturbation) {
  // The core claim (partitioned STT ≪ baseline) must hold even with the
  // STT leak factor doubled — pinned here so E13 can't silently regress.
  const Trace t = generate_app_trace(AppId::Launcher, 150'000, 9);
  TechnologyConfig c;
  c.stt_leak_factor *= 2;
  ScopedTechnology scope(c);
  const SimResult base = simulate(t, build_scheme(SchemeKind::BaselineSram));
  const SimResult mrstt =
      simulate(t, build_scheme(SchemeKind::StaticPartMrstt));
  EXPECT_LT(mrstt.l2_energy.cache_nj(), 0.5 * base.l2_energy.cache_nj());
}

// Build-time pricing: a design and an accountant keep the technology
// configuration they were built under, the way TechParams always has, so
// the per-access path reads no thread-local state.

TEST(BuildTimePricing, AccountantKeepsItsBuildConfig) {
  TechnologyConfig c;
  c.dram_access_nj = 5.0;
  std::optional<EnergyAccountant> acct;
  {
    ScopedTechnology scope(c);
    acct.emplace();
  }
  ASSERT_DOUBLE_EQ(technology().dram_access_nj, tech_constants::kDramAccessNj);
  acct->add_dram(4);
  EXPECT_DOUBLE_EQ(acct->breakdown().dram_nj, 20.0);
}

TEST(BuildTimePricing, DesignKeepsItsBuildConfig) {
  const Trace t = generate_app_trace(AppId::Launcher, 60'000, 3);
  TechnologyConfig c;
  c.dram_access_nj = 5.0;
  c.cycle_ns = 2.0;  // 40 cycles of DRAM-visible stall instead of 80
  // The segment-based designs plus the two that price their own misses.
  for (SchemeKind kind : {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt,
                          SchemeKind::DynamicStt, SchemeKind::DrowsySram,
                          SchemeKind::VictimSram}) {
    SCOPED_TRACE(scheme_name(kind));
    SimResult inside;
    std::unique_ptr<L2Interface> built;
    {
      ScopedTechnology scope(c);
      inside = simulate(t, build_scheme(kind));
      built = build_scheme(kind);
    }
    // Run after the scope closed: DRAM lines and the DRAM-visible stall are
    // still priced from the config the design was built under.
    const SimResult after = simulate(t, *built);
    EXPECT_EQ(after.l2_energy.dram_nj, inside.l2_energy.dram_nj);
    EXPECT_EQ(after.stall_l2_miss_cycles, inside.stall_l2_miss_cycles);
    EXPECT_EQ(after.cycles, inside.cycles);
    EXPECT_EQ(after.l2.total_misses(), inside.l2.total_misses());

    const SimResult nominal = simulate(t, build_scheme(kind));
    EXPECT_NE(after.l2_energy.dram_nj, nominal.l2_energy.dram_nj);
    EXPECT_LT(after.stall_l2_miss_cycles, nominal.stall_l2_miss_cycles);
  }
}

}  // namespace
}  // namespace mobcache
