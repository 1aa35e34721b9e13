/// \file test_paper_bands.cpp
/// One pinned band per experiment (E1..E18) at reduced scale: if any module
/// change silently breaks a figure the bench binaries regenerate, a test
/// here fails first. Bands are deliberately loose (small traces are noisy);
/// tight values live in EXPERIMENTS.md and the bench outputs.

#include <gtest/gtest.h>

#include "core/multi_retention_l2.hpp"
#include "core/partition_autosizer.hpp"
#include "exp/runner.hpp"
#include "sim/multicore.hpp"
#include "workload/scenario.hpp"

namespace mobcache {
namespace {

constexpr std::uint64_t kLen = 300'000;

/// Shared fixture: one reduced-suite headline run reused by several bands.
class Bands : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new ExperimentRunner(
        {AppId::Launcher, AppId::Browser, AppId::AudioPlayer}, kLen, 42);
    results_ = new std::vector<SchemeSuiteResult>(runner_->run_headline());
  }
  static void TearDownTestSuite() {
    delete results_;
    delete runner_;
    results_ = nullptr;
    runner_ = nullptr;
  }
  static const SchemeSuiteResult& of(SchemeKind k) {
    for (const auto& r : *results_)
      if (r.kind == k) return r;
    throw std::logic_error("missing scheme");
  }
  static ExperimentRunner* runner_;
  static std::vector<SchemeSuiteResult>* results_;
};

ExperimentRunner* Bands::runner_ = nullptr;
std::vector<SchemeSuiteResult>* Bands::results_ = nullptr;

TEST_F(Bands, E1KernelShareAbove35Percent) {
  for (const SimResult& r : of(SchemeKind::BaselineSram).per_workload)
    EXPECT_GT(r.l2_kernel_fraction(), 0.35) << r.workload;
}

TEST_F(Bands, E2InterferenceExists) {
  std::uint64_t cross = 0;
  for (const SimResult& r : of(SchemeKind::BaselineSram).per_workload)
    cross += r.l2.cross_mode_evictions;
  EXPECT_GT(cross, 1000u);
}

TEST_F(Bands, E3NaiveShrinkFarWorseThanPartitionedShrink) {
  EXPECT_GT(of(SchemeKind::ShrunkSram).avg_miss_rate,
            of(SchemeKind::StaticPartSram).avg_miss_rate + 0.08);
}

TEST_F(Bands, E4StaticKeepsMissRate) {
  EXPECT_LT(of(SchemeKind::StaticPartSram).avg_miss_rate,
            of(SchemeKind::BaselineSram).avg_miss_rate + 0.03);
}

TEST_F(Bands, E7BaselineIsLeakageDominated) {
  for (const SimResult& r : of(SchemeKind::BaselineSram).per_workload)
    EXPECT_GT(r.l2_energy.leakage_nj, 0.6 * r.l2_energy.cache_nj());
}

TEST_F(Bands, E9HeadlineSavingsAndOrdering) {
  EXPECT_LT(of(SchemeKind::StaticPartMrstt).norm_cache_energy, 0.30);
  EXPECT_LT(of(SchemeKind::DynamicStt).norm_cache_energy, 0.30);
  EXPECT_LT(of(SchemeKind::StaticPartMrstt).norm_exec_time, 1.10);
  EXPECT_LT(of(SchemeKind::DynamicStt).norm_exec_time, 1.12);
  // Paper-adjacent baselines stay strictly weaker than the contributions.
  EXPECT_GT(of(SchemeKind::DrowsySram).norm_cache_energy,
            of(SchemeKind::StaticPartMrstt).norm_cache_energy + 0.05);
  EXPECT_GT(of(SchemeKind::SharedStt).norm_cache_energy,
            of(SchemeKind::DynamicStt).norm_cache_energy + 0.05);
}

TEST(BandsStandalone, E5LifetimeAsymmetry) {
  LifetimeRecorder rec;
  const Trace t = generate_app_trace(AppId::Email, kLen, 42);
  const std::unique_ptr<L2Interface> l2 =
      build_scheme(SchemeKind::StaticPartSram);
  l2->add_eviction_observer(rec.observer());
  simulate(t, *l2);
  ASSERT_GT(rec.events(Mode::Kernel), 100u);
  ASSERT_GT(rec.events(Mode::User), 20u);
  EXPECT_GT(rec.liveness(Mode::User).quantile_upper_bound(0.5),
            10 * rec.liveness(Mode::Kernel).quantile_upper_bound(0.5))
      << "user blocks must live much longer than kernel blocks";
}

TEST(BandsStandalone, E6RetentionOrderingHiWorst) {
  const Trace t = generate_app_trace(AppId::Launcher, kLen, 42);
  auto energy_with = [&](RetentionClass u, RetentionClass k) {
    SchemeParams p;
    p.mrstt_user = u;
    p.mrstt_kernel = k;
    return simulate(t, build_scheme(SchemeKind::StaticPartMrstt, p))
        .l2_energy.cache_nj();
  };
  EXPECT_GT(energy_with(RetentionClass::Hi, RetentionClass::Hi),
            energy_with(RetentionClass::Mid, RetentionClass::Lo));
}

TEST(BandsStandalone, E8DynamicShrinksBelowNominal) {
  const Trace t = generate_app_trace(AppId::AudioPlayer, kLen, 42);
  const SimResult r = simulate(t, build_scheme(SchemeKind::DynamicStt));
  EXPECT_LT(r.l2_avg_enabled_bytes, 0.9 * (2 << 20));
}

TEST(BandsStandalone, E11ScenarioKernelShareHolds) {
  ScenarioConfig sc;
  sc.apps = {AppId::Launcher, AppId::Email};
  sc.total_accesses = kLen;
  sc.seed = 42;
  const Trace mix = generate_scenario(sc);
  const SimResult r = simulate(mix, build_scheme(SchemeKind::BaselineSram));
  EXPECT_GT(r.l2_kernel_fraction(), 0.35);
}

TEST(BandsStandalone, E12PrefetchReducesMisses) {
  const Trace t = generate_app_trace(AppId::VideoPlayer, kLen, 42);
  SimOptions off;
  SimOptions on;
  on.hierarchy.prefetch.enabled = true;
  const SimResult a = simulate(t, build_scheme(SchemeKind::BaselineSram), off);
  const SimResult b = simulate(t, build_scheme(SchemeKind::BaselineSram), on);
  EXPECT_LT(b.l2_miss_rate(), a.l2_miss_rate() - 0.02);
}

TEST(BandsStandalone, E15AutosizerFindsSubBaselineConfig) {
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Launcher, 150'000, 42));
  AutosizerConfig cfg;
  cfg.max_slowdown = 1.08;
  const CandidateScore best = PartitionAutosizer(cfg).best(traces);
  EXPECT_TRUE(best.feasible);
  EXPECT_LT(best.candidate.total_bytes(), 2ull << 20);
}

TEST(BandsStandalone, E16MulticoreKeepsSavings) {
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Launcher, 200'000, 42));
  traces.push_back(generate_app_trace(AppId::Email, 200'000, 43));

  ModeOnlyL2Adapter shared(build_scheme(SchemeKind::BaselineSram));
  const MulticoreResult rs = simulate_multicore(traces, shared);

  MulticoreL2Config mc;
  mc.cache.name = "L2";
  mc.cache.size_bytes = 2ull << 20;
  mc.cache.assoc = 16;
  mc.cores = 2;
  MulticoreDynamicL2 grouped(mc);
  const MulticoreResult rg = simulate_multicore(traces, grouped);

  EXPECT_LT(rg.l2_energy.cache_nj(), 0.45 * rs.l2_energy.cache_nj());
}

TEST(BandsStandalone, E17SavingsGrowAtLowClock) {
  const Trace t = generate_app_trace(AppId::Launcher, kLen, 42);
  auto ratio = [&](double cycle_ns) {
    TechnologyConfig cfg;
    cfg.cycle_ns = cycle_ns;
    ScopedTechnology scope(cfg);
    const SimResult base = simulate(t, build_scheme(SchemeKind::BaselineSram));
    const SimResult dp = simulate(t, build_scheme(SchemeKind::DynamicStt));
    return dp.l2_energy.cache_nj() / base.l2_energy.cache_nj();
  };
  EXPECT_LT(ratio(2.0), ratio(1.0));
}

TEST(BandsStandalone, E18BypassNeutralOrBetterOnSharedStt) {
  const Trace t = generate_app_trace(AppId::Social, kLen, 42);
  SchemeParams off;
  SchemeParams on;
  on.stt_write_bypass = true;
  const SimResult a = simulate(t, build_scheme(SchemeKind::SharedStt, off));
  const SimResult b = simulate(t, build_scheme(SchemeKind::SharedStt, on));
  EXPECT_LT(b.l2_energy.cache_nj(), a.l2_energy.cache_nj() * 1.02);
}

}  // namespace
}  // namespace mobcache
