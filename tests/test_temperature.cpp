#include <gtest/gtest.h>

#include <cmath>

#include "core/multi_retention_l2.hpp"
#include "core/scheme.hpp"
#include "energy/technology.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

TEST(Temperature, NominalReproducesDocumentedRetention) {
  EXPECT_EQ(retention_cycles_of(RetentionClass::Lo),
            tech_constants::kRetentionLoCycles);
  EXPECT_EQ(retention_cycles_of(RetentionClass::Mid),
            tech_constants::kRetentionMidCycles);
  EXPECT_EQ(retention_cycles_of(RetentionClass::Hi), 0u);
}

TEST(Temperature, DeltaScalesInverselyWithT) {
  TechnologyConfig cfg;
  cfg.temperature_k = 2 * kNominalTempK;
  ScopedTechnology scope(cfg);
  EXPECT_NEAR(delta_at_temperature(RetentionClass::Lo),
              delta_of(RetentionClass::Lo) / 2.0, 1e-9);
}

TEST(Temperature, HotterMeansExponentiallyShorterRetention) {
  const Cycle nominal = retention_cycles_of(RetentionClass::Lo);
  TechnologyConfig hot;
  hot.temperature_k = 358.0;  // 85 C
  ScopedTechnology scope(hot);
  const Cycle at85 = retention_cycles_of(RetentionClass::Lo);
  EXPECT_LT(at85, nominal / 4) << "85 C must cost well over 4x retention";
  EXPECT_GT(at85, nominal / 100) << "but not orders beyond the physics";
  // The analytic prediction: ratio = exp(Δ·(T0/T − 1)).
  const double predicted =
      std::exp(delta_of(RetentionClass::Lo) * (kNominalTempK / 358.0 - 1.0));
  EXPECT_NEAR(static_cast<double>(at85) / static_cast<double>(nominal),
              predicted, predicted * 0.01);
}

TEST(Temperature, ColderLengthensRetention) {
  TechnologyConfig cold;
  cold.temperature_k = 298.0;  // 25 C
  ScopedTechnology scope(cold);
  EXPECT_GT(retention_cycles_of(RetentionClass::Lo),
            tech_constants::kRetentionLoCycles);
}

TEST(Temperature, HiClassStaysEffectivelyNonVolatile) {
  TechnologyConfig hot;
  hot.temperature_k = 358.0;
  ScopedTechnology scope(hot);
  EXPECT_EQ(retention_cycles_of(RetentionClass::Hi), 0u);
}

TEST(Temperature, SttCachesInheritTheActiveRetention) {
  TechnologyConfig hot;
  hot.temperature_k = 358.0;
  ScopedTechnology scope(hot);
  const TechParams t = make_sttram(1ull << 20, RetentionClass::Lo);
  EXPECT_EQ(t.retention_cycles, retention_cycles_of(RetentionClass::Lo));
  EXPECT_LT(t.retention_cycles, tech_constants::kRetentionLoCycles / 4);
}

TEST(Temperature, DesignStillSavesEnergyWhenHot) {
  // The headline claim must survive the hot corner (graceful degradation).
  const Trace t = generate_app_trace(AppId::Email, 200'000, 5);
  TechnologyConfig hot;
  hot.temperature_k = 358.0;
  ScopedTechnology scope(hot);
  const SimResult base = simulate(t, build_scheme(SchemeKind::BaselineSram));
  const SimResult mrstt =
      simulate(t, build_scheme(SchemeKind::StaticPartMrstt));
  EXPECT_LT(mrstt.l2_energy.cache_nj(), 0.4 * base.l2_energy.cache_nj());
}

TEST(Temperature, SramBlockLifetimesIgnoreTemperature) {
  // E19 simulates its advisor's all-SRAM design once for every temperature:
  // temperature acts only through STT-RAM retention, so the lifetimes the
  // advisor reads are the same hot and cold.
  const Trace t = generate_app_trace(AppId::Launcher, 200'000, 42);
  auto lifetimes = [&](double kelvin) {
    TechnologyConfig cfg;
    cfg.temperature_k = kelvin;
    ScopedTechnology scope(cfg);
    LifetimeRecorder rec;
    const std::unique_ptr<L2Interface> l2 =
        build_scheme(SchemeKind::StaticPartSram);
    l2->add_eviction_observer(rec.observer());
    simulate(t, *l2);
    return rec;
  };
  const LifetimeRecorder cold = lifetimes(298.0);  // 25 C
  const LifetimeRecorder hot = lifetimes(358.0);   // 85 C
  for (Mode m : {Mode::User, Mode::Kernel}) {
    ASSERT_GT(cold.liveness(m).total(), 0u);
    EXPECT_EQ(cold.liveness(m).buckets(), hot.liveness(m).buckets());
    EXPECT_EQ(cold.liveness(m).total(), hot.liveness(m).total());
    EXPECT_EQ(cold.liveness(m).max_value(), hot.liveness(m).max_value());
  }
}

}  // namespace
}  // namespace mobcache
