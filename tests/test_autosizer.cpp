#include "exp/partition_autosizer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/stats.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

TEST(Autosizer, CandidateGridIsLegal) {
  for (const PartitionCandidate& c : PartitionAutosizer::candidates()) {
    CacheConfig u;
    u.size_bytes = c.user_bytes;
    u.assoc = c.user_assoc;
    EXPECT_NO_THROW(u.validate()) << c.user_bytes << "/" << c.user_assoc;
    CacheConfig k;
    k.size_bytes = c.kernel_bytes;
    k.assoc = c.kernel_assoc;
    EXPECT_NO_THROW(k.validate()) << c.kernel_bytes << "/" << c.kernel_assoc;
    EXPECT_LT(c.total_bytes(), 2ull << 21);
  }
  EXPECT_GE(PartitionAutosizer::candidates().size(), 20u);
}

// The runner grid is held to the serial loop it replaced: one simulate()
// per (design, trace) of hand-built designs, normalized by hand. Every
// field and the order must match bit for bit, at 1 and at 3 workers.
TEST(Autosizer, RunnerScoresMatchDirectSimulate) {
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Launcher, 120'000, 5));
  traces.push_back(generate_app_trace(AppId::Email, 120'000, 5));
  // Listed out of size order, so the sort has work to do: expected order
  // is grid[1], grid[2], grid[0].
  const std::vector<PartitionCandidate> grid = {
      {1024ull << 10, 8, 512ull << 10, 8},
      {256ull << 10, 8, 128ull << 10, 8},
      {768ull << 10, 12, 256ull << 10, 8},
  };
  const std::size_t order[] = {1, 2, 0};
  AutosizerConfig cfg;
  cfg.max_slowdown = 1.03;
  cfg.tech = TechKind::SttRam;

  std::vector<SimResult> base;
  for (const Trace& t : traces)
    base.push_back(simulate(t, build_scheme(SchemeKind::BaselineSram)));
  std::vector<CandidateScore> expect;
  for (const PartitionCandidate& c : grid) {
    std::vector<double> e_ratios;
    std::vector<double> t_ratios;
    double miss_sum = 0.0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      StaticPartitionConfig pc;
      pc.user = sttram_segment(c.user_bytes, c.user_assoc, RetentionClass::Mid);
      pc.kernel =
          sttram_segment(c.kernel_bytes, c.kernel_assoc, RetentionClass::Lo);
      const SimResult r =
          simulate(traces[i], std::make_unique<StaticPartitionedL2>(pc));
      e_ratios.push_back(r.l2_energy.cache_nj() / base[i].l2_energy.cache_nj());
      t_ratios.push_back(static_cast<double>(r.cycles) /
                         static_cast<double>(base[i].cycles));
      miss_sum += r.l2_miss_rate();
    }
    const double time = geomean(t_ratios);
    expect.push_back({c, geomean(e_ratios), time,
                      miss_sum / static_cast<double>(traces.size()),
                      time <= cfg.max_slowdown});
  }

  // The budget splits this grid, so feasibility is compared both ways.
  ASSERT_TRUE(expect[0].feasible);
  ASSERT_FALSE(expect[1].feasible);

  ExperimentRunner runner(std::move(traces));
  for (unsigned jobs : {1u, 3u}) {
    runner.jobs = jobs;
    const std::vector<CandidateScore> got =
        PartitionAutosizer(cfg).score_all(runner, grid);
    ASSERT_EQ(got.size(), grid.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const CandidateScore& want = expect[order[i]];
      SCOPED_TRACE("jobs " + std::to_string(jobs) + ", rank " +
                   std::to_string(i) + ": " + want.candidate.label());
      EXPECT_EQ(got[i].candidate.label(), want.candidate.label());
      EXPECT_EQ(got[i].norm_cache_energy, want.norm_cache_energy);
      EXPECT_EQ(got[i].norm_exec_time, want.norm_exec_time);
      EXPECT_EQ(got[i].avg_miss_rate, want.avg_miss_rate);
      EXPECT_EQ(got[i].feasible, want.feasible);
    }
  }
}

class AutosizerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<Trace> traces;
    traces.push_back(generate_app_trace(AppId::Launcher, 250'000, 17));
    traces.push_back(generate_app_trace(AppId::AudioPlayer, 250'000, 17));
    runner_ = new ExperimentRunner(std::move(traces));
  }
  static void TearDownTestSuite() {
    delete runner_;
    runner_ = nullptr;
  }
  static CandidateScore best(const AutosizerConfig& cfg) {
    return PartitionAutosizer::best(
        PartitionAutosizer(cfg).score_all(*runner_));
  }
  static ExperimentRunner* runner_;
};

ExperimentRunner* AutosizerFixture::runner_ = nullptr;

TEST_F(AutosizerFixture, ScoresEveryCandidateNormalized) {
  AutosizerConfig cfg;
  PartitionAutosizer az(cfg);
  // Use a reduced grid for speed.
  std::vector<PartitionCandidate> grid = {
      {256ull << 10, 8, 128ull << 10, 8},
      {1024ull << 10, 8, 512ull << 10, 8},
  };
  const auto scores = az.score_all(*runner_, grid);
  ASSERT_EQ(scores.size(), 2u);
  for (const CandidateScore& s : scores) {
    EXPECT_GT(s.norm_cache_energy, 0.0);
    EXPECT_LT(s.norm_cache_energy, 1.0);  // smaller SRAM leaks less
    EXPECT_GT(s.norm_exec_time, 0.5);
    EXPECT_GT(s.avg_miss_rate, 0.0);
  }
  // Sorted by total size.
  EXPECT_LT(scores[0].candidate.total_bytes(),
            scores[1].candidate.total_bytes());
  // Bigger partition must not be slower than the far smaller one here.
  EXPECT_LE(scores[1].norm_exec_time, scores[0].norm_exec_time + 1e-9);
}

TEST_F(AutosizerFixture, BestMeetsTimeBudgetWhenFeasible) {
  AutosizerConfig cfg;
  cfg.max_slowdown = 1.10;
  const CandidateScore b = best(cfg);
  EXPECT_TRUE(b.feasible);
  EXPECT_LE(b.norm_exec_time, 1.10);
  EXPECT_LT(b.norm_cache_energy, 1.0);
  EXPECT_LT(b.candidate.total_bytes(), 2ull << 20);
}

TEST_F(AutosizerFixture, TighterBudgetNeverPicksSlowerDesign) {
  AutosizerConfig loose;
  loose.max_slowdown = 1.25;
  AutosizerConfig tight;
  tight.max_slowdown = 1.02;
  const CandidateScore l = best(loose);
  const CandidateScore t = best(tight);
  EXPECT_LE(t.norm_exec_time, l.norm_exec_time + 1e-9);
  // Energy budget trade-off: the tight-budget pick can't save more energy.
  EXPECT_GE(t.norm_cache_energy, l.norm_cache_energy - 1e-9);
}

TEST_F(AutosizerFixture, SttTechnologyScoresLower) {
  AutosizerConfig sram;
  AutosizerConfig stt;
  stt.tech = TechKind::SttRam;
  const CandidateScore s = best(sram);
  const CandidateScore m = best(stt);
  EXPECT_LT(m.norm_cache_energy, s.norm_cache_energy);
}

TEST(Autosizer, InfeasibleBudgetFallsBackToLeastBad) {
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Maps, 150'000, 3));
  const ExperimentRunner runner(std::move(traces));
  AutosizerConfig cfg;
  cfg.max_slowdown = 0.5;  // impossible: nothing beats the baseline 2×
  PartitionAutosizer az(cfg);
  const CandidateScore best = PartitionAutosizer::best(az.score_all(runner));
  EXPECT_FALSE(best.feasible);
  EXPECT_GT(best.norm_exec_time, 0.5);
  EXPECT_THROW(PartitionAutosizer::best({}), std::invalid_argument);
}

}  // namespace
}  // namespace mobcache
