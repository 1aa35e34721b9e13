#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exp/report.hpp"
#include "exp/result_store.hpp"

namespace mobcache {
namespace {

TEST(Runner, GeneratesOneTracePerApp) {
  ExperimentRunner r({AppId::Launcher, AppId::AudioPlayer}, 20'000, 1);
  ASSERT_EQ(r.traces().size(), 2u);
  EXPECT_EQ(r.trace(0).name(), "launcher");
  EXPECT_GE(r.trace(0).size(), 20'000u);
}

TEST(Runner, RunDesignsProducesAlignedResults) {
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 20'000, 1);
  const std::vector<SchemeSuiteResult> v =
      r.run_designs({scheme_design(SchemeKind::BaselineSram)});
  ASSERT_EQ(v.size(), 1u);
  const SchemeSuiteResult& s = v[0];
  ASSERT_EQ(s.per_workload.size(), 2u);
  EXPECT_EQ(s.per_workload[0].workload, "launcher");
  EXPECT_EQ(s.per_workload[1].workload, "email");
  EXPECT_EQ(s.name, "Base-SRAM-2MB");
  EXPECT_GT(s.avg_miss_rate, 0.0);
}

TEST(Runner, RunDesignsUsesBuilderPerWorkload) {
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 20'000, 1);
  int builds = 0;
  DesignSpec probe;
  probe.name = "probe";
  probe.build = [&builds] {
    ++builds;
    return build_scheme(SchemeKind::BaselineSram);
  };
  const std::vector<SchemeSuiteResult> v = r.run_designs({probe});
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(v.at(0).name, "probe");
}

TEST(Runner, NormalizeBaselineIsUnity) {
  ExperimentRunner r({AppId::Launcher}, 30'000, 1);
  std::vector<SchemeSuiteResult> v =
      r.run_schemes({SchemeKind::BaselineSram, SchemeKind::ShrunkSram});
  ExperimentRunner::normalize(v);
  EXPECT_NEAR(v[0].norm_cache_energy, 1.0, 1e-12);
  EXPECT_NEAR(v[0].norm_exec_time, 1.0, 1e-12);
  // The shrunk shared cache must save energy and cost time.
  EXPECT_LT(v[1].norm_cache_energy, 1.0);
  EXPECT_GT(v[1].norm_exec_time, 1.0);
}

TEST(Runner, NormalizeCrossWorkloadGeomean) {
  // Hand-build results with known ratios: 0.5 and 2.0 → geomean 1.0.
  SchemeSuiteResult base;
  base.per_workload.resize(2);
  base.per_workload[0].l2_energy.leakage_nj = 100;
  base.per_workload[0].cycles = 1000;
  base.per_workload[1].l2_energy.leakage_nj = 100;
  base.per_workload[1].cycles = 1000;

  SchemeSuiteResult other = base;
  other.per_workload[0].l2_energy.leakage_nj = 50;
  other.per_workload[1].l2_energy.leakage_nj = 200;
  other.per_workload[0].cycles = 500;
  other.per_workload[1].cycles = 2000;

  std::vector<SchemeSuiteResult> v{base, other};
  ExperimentRunner::normalize(v);
  EXPECT_NEAR(v[1].norm_cache_energy, 1.0, 1e-9);
  EXPECT_NEAR(v[1].norm_exec_time, 1.0, 1e-9);
}

TEST(Runner, SameSeedSameResults) {
  ExperimentRunner a({AppId::Game}, 30'000, 5);
  ExperimentRunner b({AppId::Game}, 30'000, 5);
  const auto ra = a.run_schemes({SchemeKind::BaselineSram}).at(0);
  const auto rb = b.run_schemes({SchemeKind::BaselineSram}).at(0);
  EXPECT_EQ(ra.per_workload[0].cycles, rb.per_workload[0].cycles);
  EXPECT_DOUBLE_EQ(ra.per_workload[0].l2_energy.total_nj(),
                   rb.per_workload[0].l2_energy.total_nj());
}

// The suite is generated as one executor task per app; each trace must
// still land at its app's index, equal to a serial generation. Three
// workers over four apps, whatever the host's core count: one worker takes
// two apps, and the tasks can finish in any order.
TEST(RunnerTraces, SuiteMatchesGeneratorInAppOrder) {
  const std::vector<AppId> apps = {AppId::Maps, AppId::Launcher, AppId::Game,
                                   AppId::Email};
  setenv("MOBCACHE_JOBS", "3", 1);
  const ExperimentRunner r(apps, 15'000, 9);
  unsetenv("MOBCACHE_JOBS");
  ASSERT_EQ(r.traces().size(), apps.size());
  EXPECT_EQ(r.apps(), apps);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_EQ(hash_trace(r.trace(i)),
              hash_trace(generate_app_trace(apps[i], 15'000, 9)))
        << app_name(apps[i]);
  }
}

TEST(RunnerTraces, RunnerOverAnotherRunnersSuiteSharesItsTraces) {
  ExperimentRunner a({AppId::Launcher, AppId::Email, AppId::Browser}, 20'000,
                     3);
  ExperimentRunner b(a.apps(), a.traces());
  EXPECT_EQ(b.apps(), a.apps());
  ASSERT_EQ(b.traces().size(), a.traces().size());
  for (std::size_t i = 0; i < a.traces().size(); ++i)
    EXPECT_EQ(b.traces()[i].get(), a.traces()[i].get()) << i;

  a.jobs = 1;
  b.jobs = 3;
  const std::vector<SchemeKind> kinds = {SchemeKind::BaselineSram,
                                         SchemeKind::StaticPartMrstt};
  const std::vector<SchemeSuiteResult> ra = a.run_schemes(kinds);
  const std::vector<SchemeSuiteResult> rb = b.run_schemes(kinds);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t s = 0; s < ra.size(); ++s) {
    ASSERT_EQ(ra[s].per_workload.size(), rb[s].per_workload.size());
    for (std::size_t w = 0; w < ra[s].per_workload.size(); ++w) {
      EXPECT_EQ(result_to_record_json(ra[s].per_workload[w]),
                result_to_record_json(rb[s].per_workload[w]))
          << ra[s].name << " / " << w;
    }
  }
}

// Runners own their traces: nothing outside them keeps a suite alive, so a
// multi-runner experiment holds only the suites it still uses.
TEST(RunnerTraces, TracesFreedWithTheLastRunnerHoldingThem) {
  std::weak_ptr<const Trace> first;
  {
    auto a = std::make_unique<ExperimentRunner>(
        std::vector<AppId>{AppId::Launcher, AppId::Email, AppId::Maps}, 10'000,
        1);
    first = a->traces()[0];
    const ExperimentRunner b(a->apps(), a->traces());
    a.reset();
    EXPECT_FALSE(first.expired());  // b still holds the suite
    EXPECT_EQ(b.traces()[0].get(), first.lock().get());
  }
  EXPECT_TRUE(first.expired());
}

TEST(Report, HeadlineTableShape) {
  ExperimentRunner r({AppId::Launcher}, 20'000, 1);
  std::vector<SchemeSuiteResult> v = r.run_schemes({SchemeKind::BaselineSram});
  ExperimentRunner::normalize(v);
  const TablePrinter t = headline_table(v);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.column_count(), 8u);
  EXPECT_NE(t.render().find("Base-SRAM-2MB"), std::string::npos);
}

TEST(Report, ResultsPathUsesEnvOverride) {
  setenv("MOBCACHE_RESULTS_DIR", "/tmp/mobcache_results_test", 1);
  EXPECT_EQ(results_path("x.csv"), "/tmp/mobcache_results_test/x.csv");
  unsetenv("MOBCACHE_RESULTS_DIR");
  EXPECT_EQ(results_path("x.csv"), "results/x.csv");
}

}  // namespace
}  // namespace mobcache
