#include "exp/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "exp/json_export.hpp"
#include "exp/runner.hpp"

namespace mobcache {
namespace {

TEST(EffectiveJobs, ExplicitRequestWins) {
  setenv("MOBCACHE_JOBS", "3", 1);
  EXPECT_EQ(effective_jobs(7), 7u);
  unsetenv("MOBCACHE_JOBS");
}

TEST(EffectiveJobs, EnvOverrideUsedWhenUnrequested) {
  setenv("MOBCACHE_JOBS", "5", 1);
  EXPECT_EQ(effective_jobs(0), 5u);
  unsetenv("MOBCACHE_JOBS");
}

TEST(EffectiveJobs, NeverZero) {
  setenv("MOBCACHE_JOBS", "0", 1);
  EXPECT_GE(effective_jobs(0), 1u);
  unsetenv("MOBCACHE_JOBS");
  EXPECT_GE(effective_jobs(0), 1u);
}

TEST(SweepPointSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(sweep_point_seed(42, 0), sweep_point_seed(42, 0));
  // Distinct (base, index) pairs must give distinct streams — a collision
  // here would silently correlate sweep points.
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ull, 42ull, 98765ull}) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      seen.insert(sweep_point_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(SweepPointSeed, DerivedSeedsMatchPointSeeds) {
  const auto seeds = derived_seeds(42, 8);
  ASSERT_EQ(seeds.size(), 8u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], sweep_point_seed(42, i)) << i;
  }
}

TEST(SweepExecutor, MapReturnsResultsInIndexOrder) {
  SweepExecutor ex(8);
  EXPECT_EQ(ex.jobs(), 8u);
  const auto out = ex.map(1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i) << i;
}

TEST(SweepExecutor, ForEachVisitsEveryIndexExactlyOnce) {
  SweepExecutor ex(4);
  std::vector<std::atomic<int>> visits(257);
  ex.for_each(visits.size(),
              [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < visits.size(); ++i)
    EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(SweepExecutor, SerialAndParallelAgree) {
  SweepExecutor serial(1), parallel(8);
  auto fn = [](std::size_t i) {
    // Something order-sensitive if the executor mixed up indices.
    return static_cast<double>(i) * 1.5 + 1.0 / (1.0 + static_cast<double>(i));
  };
  EXPECT_EQ(serial.map(100, fn), parallel.map(100, fn));
}

TEST(SweepExecutor, ZeroAndOnePointSweeps) {
  SweepExecutor ex(8);
  EXPECT_TRUE(ex.map(0, [](std::size_t i) { return i; }).empty());
  const auto one = ex.map(1, [](std::size_t i) { return i + 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
}

TEST(SweepExecutor, ThrowingPointFailsSweepWithoutDeadlock) {
  SweepExecutor ex(8);
  EXPECT_THROW(ex.for_each(64,
                           [](std::size_t i) {
                             if (i == 13)
                               throw std::runtime_error("point 13 boom");
                           }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  const auto ok = ex.map(16, [](std::size_t i) { return i; });
  EXPECT_EQ(ok.size(), 16u);
}

TEST(SweepExecutor, RethrownExceptionNamesAFailingPoint) {
  // Fail-fast semantics: the sweep cancels on the first observed failure,
  // so with several throwing points any one of them may be the one
  // rethrown — but it must be one of them, lowest-indexed among those that
  // actually ran.
  SweepExecutor ex(8);
  try {
    ex.for_each(200, [](std::size_t i) {
      if (i % 50 == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::set<std::string> throwing = {"7", "57", "107", "157"};
    EXPECT_TRUE(throwing.count(e.what()) == 1)
        << "unexpected exception: " << e.what();
  }
}

TEST(SweepExecutor, LowestIndexWinsWhenAllShardsThrowConcurrently) {
  // Regression for the resume path's exception contract: when several
  // shards fail *concurrently* (not just "one of the failing points"), the
  // rethrown exception must be the lowest-indexed failure observed. One
  // point per worker plus a start barrier forces every index to run and
  // every shard to throw at the same time, so the answer is deterministic:
  // index 0.
  constexpr std::size_t kPoints = 8;
  SweepExecutor ex(kPoints);
  std::atomic<std::size_t> entered{0};
  try {
    ex.for_each(kPoints, [&](std::size_t i) {
      entered.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      // Bounded spin so a future semantics change degrades this test into
      // a slow failure instead of a hung CI job.
      while (entered.load() < kPoints &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(SweepExecutor, SoleThrowingPointIsTheOneRethrown) {
  SweepExecutor ex(8);
  try {
    ex.for_each(64, [](std::size_t i) {
      if (i == 13) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "13");
  }
}

/// Slots point i's failure at out[i], as the runner's keep-going grids do.
auto slot_failures(std::vector<PointOutcome<std::size_t>>& out) {
  return [&out](PointFailure&& f) {
    const std::size_t i = f.index;
    out[i].failure.emplace(std::move(f));
  };
}

TEST(SweepExecutor, KeepGoingCollectsFailuresInIndexOrder) {
  // K injected throwing points out of N: the sweep must finish with N-K
  // values and K failures, each failure slotted at its own index.
  const std::set<std::size_t> bad = {3, 17, 40};
  for (unsigned jobs : {1u, 8u}) {
    SweepExecutor ex(jobs);
    std::vector<PointOutcome<std::size_t>> out(64);
    ex.for_each_outcomes(
        out.size(),
        [&](std::size_t i) {
          if (bad.count(i)) throw NumericError("boom " + std::to_string(i));
          out[i].value = i * 2;
        },
        slot_failures(out));
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (bad.count(i)) {
        ASSERT_FALSE(out[i].ok()) << i << " jobs=" << jobs;
        EXPECT_EQ(out[i].failure->index, i);
        EXPECT_EQ(out[i].failure->error_type, "numeric");
        EXPECT_EQ(out[i].failure->message, "boom " + std::to_string(i));
        EXPECT_FALSE(out[i].failure->quarantined);
      } else {
        ASSERT_TRUE(out[i].ok()) << i << " jobs=" << jobs;
        EXPECT_EQ(*out[i].value, i * 2);
      }
    }
  }
}

TEST(SweepExecutor, KeepGoingStillPropagatesCancellation) {
  // Cancellation is a whole-run event, never a per-point failure: a
  // keep-going sweep must rethrow it instead of recording it.
  SweepExecutor ex(1);  // serial path checks the token before each point
  std::vector<PointOutcome<std::size_t>> out(16);
  auto run = [&](std::size_t n) {
    ex.for_each_outcomes(
        n, [&](std::size_t i) { out[i].value = i; }, slot_failures(out));
  };
  global_cancel_token().request_cancel();
  EXPECT_THROW(run(16), CancelledError);
  global_cancel_token().reset();
  // After reset the pool runs normally again.
  out.assign(4, {});
  run(4);
  EXPECT_TRUE(out[3].ok());
}

TEST(SweepExecutor, ParallelSweepDrainsAndThrowsWhenCancelledMidRun) {
  SweepExecutor ex(4);
  std::atomic<std::size_t> ran{0};
  try {
    ex.for_each(256, [&](std::size_t) {
      if (ran.fetch_add(1) == 20) global_cancel_token().request_cancel();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    FAIL() << "expected CancelledError";
  } catch (const CancelledError&) {
  }
  global_cancel_token().reset();
  // Draining, not aborting: in-flight points complete, later ones are
  // never handed out.
  EXPECT_GE(ran.load(), 21u);
  EXPECT_LT(ran.load(), 256u);
}

TEST(SweepExecutor, FullyDrainedSweepIgnoresLateCancellation) {
  // A cancel request that lands once every point has already *started*
  // skips nothing — the sweep drains to completion and must not be turned
  // into a spurious failure.
  SweepExecutor ex(4);
  std::atomic<std::size_t> started{0};
  const auto out = ex.map(32, [&](std::size_t i) {
    if (started.fetch_add(1) + 1 == 32)
      global_cancel_token().request_cancel();
    return i;
  });
  global_cancel_token().reset();
  EXPECT_EQ(out.size(), 32u);
}

TEST(SweepExecutor, TechnologyOverridePropagatesToWorkers) {
  TechnologyConfig cfg;
  cfg.dram_access_nj *= 3.0;
  ScopedTechnology scope(cfg);
  SweepExecutor ex(8);
  const auto seen = ex.map(
      64, [](std::size_t) { return technology().dram_access_nj; });
  for (double v : seen) EXPECT_DOUBLE_EQ(v, cfg.dram_access_nj);
}

// ---- end-to-end determinism: the property the whole design exists for ----

TEST(ParallelDeterminism, RunSchemesJsonByteIdentical) {
  ExperimentRunner serial({AppId::Launcher, AppId::Email}, 20'000, 1);
  ExperimentRunner parallel({AppId::Launcher, AppId::Email}, 20'000, 1);
  serial.jobs = 1;
  parallel.jobs = 8;
  auto vs = serial.run_schemes(
      {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  auto vp = parallel.run_schemes(
      {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  ExperimentRunner::normalize(vs);
  ExperimentRunner::normalize(vp);
  EXPECT_EQ(experiment_to_json("det", vs), experiment_to_json("det", vp));
}

TEST(ParallelDeterminism, FaultSweepAgreesAcrossJobCounts) {
  ExperimentRunner serial({AppId::Browser}, 20'000, 21);
  ExperimentRunner parallel({AppId::Browser}, 20'000, 21);
  serial.jobs = 1;
  parallel.jobs = 8;
  SchemeParams tmpl;
  tmpl.fault.ecc = EccKind::Secded;
  const std::vector<double> rates = {1e-3, 5e-3};
  const auto ps = run_fault_sweep(serial, SchemeKind::StaticPartMrstt, rates,
                                  tmpl);
  const auto pp = run_fault_sweep(parallel, SchemeKind::StaticPartMrstt, rates,
                                  tmpl);
  ASSERT_EQ(ps.size(), pp.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(ps[i].norm_cache_energy, pp[i].norm_cache_energy) << i;
    EXPECT_DOUBLE_EQ(ps[i].norm_exec_time, pp[i].norm_exec_time) << i;
    EXPECT_EQ(ps[i].ecc_corrections, pp[i].ecc_corrections) << i;
    EXPECT_EQ(ps[i].fault_losses, pp[i].fault_losses) << i;
  }
}

TEST(ParallelDeterminism, MultiSeedAgreesAcrossJobCounts) {
  const std::vector<AppId> apps = {AppId::Launcher};
  const std::vector<std::uint64_t> seeds = {11, 22, 42};
  const std::vector<SchemeKind> schemes = {SchemeKind::BaselineSram,
                                           SchemeKind::StaticPartMrstt};
  const auto rs = run_multi_seed(apps, 20'000, seeds, schemes, {}, 1);
  const auto rp = run_multi_seed(apps, 20'000, seeds, schemes, {}, 8);
  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].name, rp[i].name);
    EXPECT_DOUBLE_EQ(rs[i].cache_energy.mean, rp[i].cache_energy.mean) << i;
    EXPECT_DOUBLE_EQ(rs[i].cache_energy.stddev, rp[i].cache_energy.stddev)
        << i;
    EXPECT_DOUBLE_EQ(rs[i].exec_time.mean, rp[i].exec_time.mean) << i;
    EXPECT_DOUBLE_EQ(rs[i].miss_rate.max, rp[i].miss_rate.max) << i;
  }
}

}  // namespace
}  // namespace mobcache
