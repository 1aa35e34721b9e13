/// \file test_batch.cpp
/// Single-pass replay (sim/batch.hpp, ExperimentRunner::run_designs):
/// every replay's whole contract is byte-identity with per-point
/// simulate(), so nearly every test here pins the two against each other —
/// SimResults via the exact result-store record serialization, result-store
/// keys, and the keep-going failure manifests.

#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "exp/result_store.hpp"
#include "exp/runner.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

namespace fs = std::filesystem;

/// Forwarding L2 wrapper with a per-access hook — the seam for injecting
/// lane-local faults and mid-replay cancellation into batch tests.
class HookedL2 final : public L2Interface {
 public:
  HookedL2(std::unique_ptr<L2Interface> inner,
           std::function<void(std::uint64_t)> hook)
      : inner_(std::move(inner)), hook_(std::move(hook)) {}

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override {
    hook_(++accesses_);
    return inner_->access(line, type, mode, now);
  }
  void writeback(Addr line, Mode owner, Cycle now) override {
    inner_->writeback(line, owner, now);
  }
  void prefetch(Addr line, Mode mode, Cycle now) override {
    inner_->prefetch(line, mode, now);
  }
  void finalize(Cycle end) override { inner_->finalize(end); }
  const EnergyBreakdown& energy() const override { return inner_->energy(); }
  CacheStats aggregate_stats() const override {
    return inner_->aggregate_stats();
  }
  std::uint64_t capacity_bytes() const override {
    return inner_->capacity_bytes();
  }
  double avg_enabled_bytes() const override {
    return inner_->avg_enabled_bytes();
  }
  std::uint32_t quarantined_ways() const override {
    return inner_->quarantined_ways();
  }
  std::string describe() const override { return inner_->describe(); }
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override {
    inner_->add_eviction_observer(std::move(obs));
  }

 private:
  std::unique_ptr<L2Interface> inner_;
  std::function<void(std::uint64_t)> hook_;
  std::uint64_t accesses_ = 0;
};

// ---- eligibility ---------------------------------------------------------

TEST(BatchEligible, DefaultOptionsAreEligible) {
  EXPECT_TRUE(batch_eligible(SimOptions{}));
}

TEST(BatchEligible, AnyL2ToL1ChannelDisqualifies) {
  SimOptions inclusive;
  inclusive.hierarchy.inclusive_l2 = true;
  EXPECT_FALSE(batch_eligible(inclusive));

  SimOptions prefetch;
  prefetch.hierarchy.prefetch.enabled = true;
  EXPECT_FALSE(batch_eligible(prefetch));

  SimOptions telemetry;
  Telemetry session;
  telemetry.telemetry = &session;
  EXPECT_FALSE(batch_eligible(telemetry));
}

// ---- demand stream -------------------------------------------------------

TEST(BatchStream, CountsMatchTheSharedL1Pass) {
  const Trace trace = generate_app_trace(AppId::Launcher, 40'000, 7);
  const SimOptions opts;
  const DemandStream s = build_demand_stream(trace, opts);

  EXPECT_EQ(s.total_records, trace.size());
  EXPECT_EQ(s.workload, trace.name());
  // One demand record per L1 miss, nothing more.
  EXPECT_EQ(s.size(), s.l1i.total_misses() + s.l1d.total_misses());
  EXPECT_GT(s.size(), 0u);
  EXPECT_GT(s.l1_dynamic_nj, 0.0);

  // SoA lanes stay aligned; record indices are the retire-order clock base.
  ASSERT_EQ(s.record.size(), s.size());
  ASSERT_EQ(s.flags.size(), s.size());
  ASSERT_EQ(s.wb_line.size(), s.size());
  std::uint64_t prev = 0;
  for (std::size_t e = 0; e < s.size(); ++e) {
    EXPECT_GE(s.record[e], prev);
    EXPECT_LT(s.record[e], s.total_records);
    prev = s.record[e];
    if ((s.flags[e] & DemandStream::kWriteback) == 0) {
      EXPECT_EQ(s.wb_line[e], 0u);
    }
  }
}

// ---- L1 miss index ---------------------------------------------------------

L1MissIndex index_of(const Trace& trace, const SimOptions& opts) {
  return build_l1_miss_index(trace, opts, PointSupervisor(opts));
}

std::uint64_t popcount_all(const std::vector<std::uint64_t>& bits) {
  std::uint64_t n = 0;
  for (const std::uint64_t w : bits) n += std::popcount(w);
  return n;
}

TEST(L1Index, AgreesWithTheDemandStream) {
  const Trace trace =
      generate_app_trace(AppId::Browser, kCancelPollStride + 30'000, 3);
  const SimOptions opts;
  const DemandStream s = build_demand_stream(trace, opts);
  const L1MissIndex x = index_of(trace, opts);

  EXPECT_EQ(x.workload, s.workload);
  EXPECT_EQ(x.total_records, s.total_records);
  EXPECT_EQ(x.l1i.total_misses(), s.l1i.total_misses());
  EXPECT_EQ(x.l1d.total_misses(), s.l1d.total_misses());
  EXPECT_EQ(x.l1_dynamic_nj, s.l1_dynamic_nj);

  // One miss bit per demand record, at that record's trace index.
  EXPECT_EQ(popcount_all(x.miss), s.size());
  std::vector<Addr> wb_seq;
  for (std::size_t e = 0; e < s.size(); ++e) {
    const std::uint64_t i = s.record[e];
    EXPECT_NE((x.miss[i >> 6] >> (i & 63)) & 1u, 0u) << "record " << i;
    const std::uint8_t f = s.flags[e];
    if ((f & DemandStream::kWriteback) != 0) {
      wb_seq.push_back(s.wb_line[e] |
                       ((f & DemandStream::kWbKernel) != 0 ? 1u : 0u));
    }
  }
  // One wb bit per writeback; victims carry the same lines and owners.
  EXPECT_EQ(popcount_all(x.wb), wb_seq.size());
  ASSERT_EQ(x.victim_count(), wb_seq.size());
  for (std::size_t k = 0; k < wb_seq.size(); ++k)
    EXPECT_EQ(x.victim(k), wb_seq[k]) << "victim " << k;
}

TEST(L1Index, StaysUnderTwoBytesPerRecord) {
  const Trace trace = generate_app_trace(AppId::Browser, 400'000, 5);
  const L1MissIndex x = index_of(trace, SimOptions{});
  EXPECT_LT(static_cast<double>(x.bytes()) /
                static_cast<double>(trace.size()),
            2.0);
}

TEST(L1Index, ReplayMatchesSimulateForEveryScheme) {
  const Trace trace =
      generate_app_trace(AppId::Email, kCancelPollStride + 20'000, 13);
  const SimOptions opts;
  const L1MissIndex x = index_of(trace, opts);
  for (int k = 0; k < kSchemeCount; ++k) {
    const auto kind = static_cast<SchemeKind>(k);
    const std::unique_ptr<L2Interface> l2 = build_scheme(kind);
    const SimResult got =
        replay_l1_miss_index(trace, x, *l2, PointSupervisor(opts));
    EXPECT_EQ(result_to_record_json(got),
              result_to_record_json(simulate(trace, build_scheme(kind), opts)))
        << "scheme " << scheme_name(kind);
  }

  // An index only replays the trace it was built from.
  const Trace other = generate_app_trace(AppId::Email, 1'000, 13);
  const std::unique_ptr<L2Interface> l2 = build_scheme(SchemeKind::BaselineSram);
  EXPECT_THROW(replay_l1_miss_index(other, x, *l2, PointSupervisor(opts)),
               std::invalid_argument);
}

TEST(L1Index, PreCancelledTokenAbortsTheBuild) {
  const Trace trace =
      generate_app_trace(AppId::Launcher, kCancelPollStride + 5'000, 7);
  CancelToken token;
  token.request_cancel();
  SimOptions opts;
  opts.cancel = &token;
  try {
    (void)index_of(trace, opts);
    FAIL() << "the build ignored a cancelled token";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.workload(), trace.name());
  }
}

TEST(L1Index, ReplayDeadlineCarriesWorkloadAndScheme) {
  const Trace trace =
      generate_app_trace(AppId::Maps, kCancelPollStride + 5'000, 9);
  const L1MissIndex x = index_of(trace, SimOptions{});
  SimOptions opts;
  opts.point_deadline_ms = 1;
  const PointSupervisor sup(opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::unique_ptr<L2Interface> l2 = build_scheme(SchemeKind::DynamicStt);
  try {
    (void)replay_l1_miss_index(trace, x, *l2, sup);
    FAIL() << "the replay ignored an expired deadline";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.workload(), trace.name());
    EXPECT_EQ(e.scheme(), l2->describe());
  }
}

// ---- batch replay vs simulate() ------------------------------------------

TEST(BatchSim, MixedSchemeBatchMatchesSimulateForEveryScheme) {
  const Trace trace = generate_app_trace(AppId::Browser, 40'000, 11);
  const SimOptions opts;

  // All nine schemes as lanes of ONE batch — the mixed-kind stress case.
  std::vector<std::unique_ptr<L2Interface>> designs;
  std::vector<L2Interface*> lanes;
  for (int k = 0; k < kSchemeCount; ++k) {
    designs.push_back(build_scheme(static_cast<SchemeKind>(k)));
    lanes.push_back(designs.back().get());
  }
  const std::vector<BatchLaneOutcome> batched =
      simulate_batch_lanes(build_demand_stream(trace, opts), lanes, opts);
  ASSERT_EQ(batched.size(), static_cast<std::size_t>(kSchemeCount));

  for (int k = 0; k < kSchemeCount; ++k) {
    const BatchLaneOutcome& lane = batched[static_cast<std::size_t>(k)];
    ASSERT_TRUE(lane.ok()) << "scheme " << k;
    const std::unique_ptr<L2Interface> ref =
        build_scheme(static_cast<SchemeKind>(k));
    const SimResult expect = simulate(trace, *ref, opts);
    EXPECT_EQ(result_to_record_json(*lane.result),
              result_to_record_json(expect))
        << "scheme " << scheme_name(static_cast<SchemeKind>(k));
  }
}

TEST(BatchSim, LaneErrorIsConfinedToItsLane) {
  const Trace trace = generate_app_trace(AppId::Email, 30'000, 3);
  const SimOptions opts;
  const DemandStream stream = build_demand_stream(trace, opts);

  auto good = build_scheme(SchemeKind::BaselineSram);
  HookedL2 bad(build_scheme(SchemeKind::BaselineSram),
               [](std::uint64_t n) {
                 if (n == 100) throw NumericError("injected lane fault");
               });
  std::vector<L2Interface*> lanes{good.get(), &bad};
  const std::vector<BatchLaneOutcome> out =
      simulate_batch_lanes(stream, lanes, opts);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ok());
  ASSERT_FALSE(out[1].ok());
  EXPECT_THROW(std::rethrow_exception(out[1].error), NumericError);

  // The healthy lane is untouched by its neighbour's death.
  const std::unique_ptr<L2Interface> ref =
      build_scheme(SchemeKind::BaselineSram);
  EXPECT_EQ(result_to_record_json(*out[0].result),
            result_to_record_json(simulate(trace, *ref, opts)));
}

TEST(BatchSim, PreCancelledTokenAbortsTheSharedPass) {
  // The poll cadence is kCancelPollStride records, so the trace must span
  // at least one chunk boundary for the token to be observed.
  const Trace trace =
      generate_app_trace(AppId::Launcher, kCancelPollStride + 5'000, 7);
  CancelToken token;
  token.request_cancel();
  SimOptions opts;
  opts.cancel = &token;
  std::unique_ptr<L2Interface> l2 = build_scheme(SchemeKind::BaselineSram);
  std::vector<L2Interface*> lanes{l2.get()};
  EXPECT_THROW(
      simulate_batch_lanes(build_demand_stream(trace, opts), lanes, opts),
      CancelledError);
}

// ---- ExperimentRunner grids ----------------------------------------------

std::vector<DesignSpec> mixed_grid() {
  std::vector<DesignSpec> specs;
  specs.push_back(scheme_design(SchemeKind::BaselineSram));
  SchemeParams lo_hi;
  lo_hi.mrstt_user = RetentionClass::Lo;
  lo_hi.mrstt_kernel = RetentionClass::Hi;
  specs.push_back(scheme_design(SchemeKind::StaticPartMrstt, lo_hi));
  SchemeParams small;
  small.baseline_bytes = 512ull << 10;
  small.baseline_assoc = 8;
  specs.push_back(scheme_design(SchemeKind::BaselineSram, small));
  specs.push_back(scheme_design(SchemeKind::DynamicStt));
  specs.push_back(scheme_design(SchemeKind::StaticPartMrstt));
  return specs;
}

/// The per-point reference for a grid: one direct simulate() call per
/// (spec × workload) cell over the runner's traces and options.
std::vector<SchemeSuiteResult> simulate_grid(
    const ExperimentRunner& r, const std::vector<DesignSpec>& specs) {
  std::vector<SchemeSuiteResult> out;
  for (const DesignSpec& d : specs) {
    SchemeSuiteResult suite;
    suite.name = d.name;
    if (d.kind) suite.kind = *d.kind;
    double miss_sum = 0.0;
    for (const auto& t : r.traces()) {
      suite.per_workload.push_back(simulate(*t, d.build(), r.sim_options));
      miss_sum += suite.per_workload.back().l2_miss_rate();
    }
    suite.avg_miss_rate = miss_sum / static_cast<double>(r.traces().size());
    out.push_back(std::move(suite));
  }
  return out;
}

void expect_suite_equal(const SchemeSuiteResult& a,
                        const SchemeSuiteResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_DOUBLE_EQ(a.avg_miss_rate, b.avg_miss_rate);
  ASSERT_EQ(a.per_workload.size(), b.per_workload.size());
  for (std::size_t w = 0; w < a.per_workload.size(); ++w) {
    EXPECT_EQ(result_to_record_json(a.per_workload[w]),
              result_to_record_json(b.per_workload[w]));
  }
}

TEST(RunnerBatch, RunDesignsByteIdenticalAcrossBatchAndJobs) {
  const std::vector<DesignSpec> specs = mixed_grid();

  ExperimentRunner per_point({AppId::Launcher, AppId::Email}, 30'000, 42);
  const std::vector<SchemeSuiteResult> expect =
      simulate_grid(per_point, specs);

  // Every job count must reproduce the per-point bytes.
  for (unsigned jobs : {1u, 2u}) {
    ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
    r.jobs = jobs;
    const std::vector<SchemeSuiteResult> got = r.run_designs(specs);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_suite_equal(got[i], expect[i]);
  }
}

TEST(RunnerBatch, RunSchemesDelegatesToTheBatchedPath) {
  const std::vector<SchemeKind> kinds{SchemeKind::BaselineSram,
                                      SchemeKind::StaticPartMrstt,
                                      SchemeKind::DynamicStt};
  ExperimentRunner per_point({AppId::Maps}, 30'000, 9);
  ExperimentRunner batched({AppId::Maps}, 30'000, 9);
  std::vector<DesignSpec> specs;
  for (SchemeKind k : kinds) specs.push_back(scheme_design(k));
  const auto expect = simulate_grid(per_point, specs);
  const auto got = batched.run_schemes(kinds);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);
}

TEST(RunnerBatch, IneligibleConfigurationFallsBackPerPoint) {
  ExperimentRunner r({AppId::Launcher}, 20'000, 1);
  ASSERT_TRUE(batch_eligible(r.sim_options));
  r.sim_options.hierarchy.inclusive_l2 = true;
  EXPECT_FALSE(batch_eligible(r.sim_options));
  // The fallback still runs the grid correctly under the ineligible config.
  const std::vector<DesignSpec> specs{scheme_design(SchemeKind::BaselineSram),
                                      scheme_design(SchemeKind::DynamicStt)};
  const auto got = r.run_designs(specs);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_GT(got[0].per_workload[0].records, 0u);
  const auto expect = simulate_grid(r, specs);
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);

  // Telemetry collection simulates every cell too: each carries a session.
  ExperimentRunner t({AppId::Launcher}, 20'000, 1);
  t.collect_telemetry = true;
  for (const SchemeSuiteResult& s : t.run_designs(specs)) {
    ASSERT_EQ(s.per_workload_telemetry.size(), 1u);
    EXPECT_NE(s.per_workload_telemetry[0], nullptr);
  }
}

TEST(RunnerBatch, KeepGoingManifestMatchesPerPoint) {
  const std::vector<DesignSpec> specs = mixed_grid();
  const auto hook = [](std::size_t i) {
    if (i == 2) {
      NumericError err("injected chaos fault");
      err.with_point(i);
      throw err;
    }
  };

  // The per-point reference: each spec's hook, then its direct cells.
  ExperimentRunner per_point({AppId::Launcher, AppId::Email}, 30'000, 42);
  const std::vector<SchemeSuiteResult> cells = simulate_grid(per_point, specs);
  std::vector<PointOutcome<SchemeSuiteResult>> expect(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    try {
      hook(i);
      expect[i].value = cells[i];
    } catch (...) {
      expect[i].failure = point_failure_from(i, std::current_exception());
    }
  }

  ExperimentRunner batched({AppId::Launcher, AppId::Email}, 30'000, 42);
  const auto got =
      batched.run_designs_outcomes(specs, /*keep_going=*/true, hook);

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), expect[i].ok()) << "point " << i;
    if (got[i].ok()) {
      expect_suite_equal(*got[i].value, *expect[i].value);
    } else {
      EXPECT_EQ(got[i].failure->index, expect[i].failure->index);
      EXPECT_EQ(got[i].failure->error_type, expect[i].failure->error_type);
      EXPECT_EQ(got[i].failure->message, expect[i].failure->message);
      EXPECT_FALSE(got[i].failure->quarantined);
    }
  }
  EXPECT_FALSE(got[2].ok());
  EXPECT_EQ(got[2].failure->error_type, "numeric");
}

TEST(RunnerBatch, FailFastPropagatesTheInjectedFault) {
  ExperimentRunner r({AppId::Launcher}, 20'000, 1);
  const auto hook = [](std::size_t i) {
    if (i == 1) throw NumericError("injected chaos fault");
  };
  EXPECT_THROW(r.run_designs_outcomes(mixed_grid(), /*keep_going=*/false,
                                      hook),
               NumericError);
}

// ---- result-store interchange --------------------------------------------

class BatchStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("mobcache_batch_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

/// `specs` as one-design runner calls. A lone cell on its trace has no L1
/// pass to share, so each of these cells calls simulate().
std::vector<SchemeSuiteResult> run_one_design_calls(
    const ExperimentRunner& r, const std::vector<DesignSpec>& specs) {
  std::vector<SchemeSuiteResult> out;
  for (const DesignSpec& d : specs)
    out.push_back(std::move(r.run_designs({d}).front()));
  return out;
}

TEST_F(BatchStoreTest, BatchedWarmRunServesPerPointColdRecords) {
  const std::vector<DesignSpec> specs = mixed_grid();
  {
    ResultStore cold(dir());
    ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
    r.result_store = &cold;
    (void)run_one_design_calls(r, specs);  // simulate() populates the store
    EXPECT_EQ(cold.stats().stores, specs.size() * 2);
  }
  ResultStore warm(dir());
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
  r.result_store = &warm;
  const auto got = r.run_designs(specs);

  ExperimentRunner ref({AppId::Launcher, AppId::Email}, 30'000, 42);
  const auto expect = simulate_grid(ref, specs);
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);
  // Every (design × workload) cell was served from the records of the
  // other path — keys do not depend on it.
  EXPECT_EQ(warm.stats().hits, specs.size() * 2);
  EXPECT_EQ(warm.stats().misses, 0u);
}

TEST_F(BatchStoreTest, PerPointWarmRunServesBatchedColdRecords) {
  const std::vector<DesignSpec> specs = mixed_grid();
  {
    ResultStore cold(dir());
    ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
    r.result_store = &cold;
    (void)r.run_designs(specs);  // the index replay populates the store
    EXPECT_EQ(cold.stats().stores, specs.size() * 2);
  }
  ResultStore warm(dir());
  ExperimentRunner r({AppId::Launcher, AppId::Email}, 30'000, 42);
  r.result_store = &warm;
  const auto got = run_one_design_calls(r, specs);
  EXPECT_EQ(warm.stats().hits, specs.size() * 2);
  EXPECT_EQ(warm.stats().misses, 0u);
  const auto expect = simulate_grid(r, specs);
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);
}

TEST_F(BatchStoreTest, WarmGridComputesNothing) {
  // A grid whose cells all come from the store must not build an L1 index
  // or simulate: under a cancelled token either would throw at its first
  // poll stride.
  const std::uint64_t len = kCancelPollStride + 10'000;
  const std::vector<DesignSpec> specs = mixed_grid();
  {
    ResultStore cold(dir());
    ExperimentRunner r({AppId::Launcher, AppId::Email}, len, 42);
    r.result_store = &cold;
    (void)r.run_designs(specs);
  }
  CancelToken token;
  token.request_cancel();
  ResultStore warm(dir());
  ExperimentRunner r({AppId::Launcher, AppId::Email}, len, 42);
  r.result_store = &warm;
  r.jobs = 2;
  r.sim_options.cancel = &token;
  const auto got = r.run_designs(specs);
  EXPECT_EQ(warm.stats().hits, specs.size() * 2);
  EXPECT_EQ(warm.stats().misses, 0u);
  ASSERT_EQ(got.size(), specs.size());
}

TEST_F(BatchStoreTest, CancellationMidSweepResumesFromTheStore) {
  // The saboteur flips the token during its workload-0 cell, the last of
  // that workload; the cancellation is observed at that cell's first poll
  // stride, after workload 0's other cells reached the store. The rerun
  // then resumes from those records.
  const std::uint64_t len = kCancelPollStride + 10'000;
  CancelToken token;
  std::vector<DesignSpec> specs;
  specs.push_back(scheme_design(SchemeKind::BaselineSram));
  specs.push_back(scheme_design(SchemeKind::StaticPartMrstt));
  DesignSpec saboteur;
  saboteur.name = "saboteur";
  saboteur.build = [&token] {
    return std::make_unique<HookedL2>(
        build_scheme(SchemeKind::BaselineSram),
        [&token](std::uint64_t n) {
          if (n == 1) token.request_cancel();
        });
  };  // no design_hash: the saboteur itself is never memoized
  specs.push_back(std::move(saboteur));

  {
    ResultStore store(dir());
    ExperimentRunner r({AppId::Launcher, AppId::Email}, len, 42);
    r.result_store = &store;
    r.sim_options.cancel = &token;
    EXPECT_THROW(r.run_designs_outcomes(specs, /*keep_going=*/true),
                 CancelledError);
    EXPECT_GE(store.stats().stores, 2u);  // workload 0's hashed cells landed
  }

  token.reset();
  specs.pop_back();  // resume the real grid without the saboteur
  ResultStore store(dir());
  ExperimentRunner r({AppId::Launcher, AppId::Email}, len, 42);
  r.result_store = &store;
  const auto got = r.run_designs(specs);
  EXPECT_GE(store.stats().hits, 2u);

  ExperimentRunner ref({AppId::Launcher, AppId::Email}, len, 42);
  const auto expect = simulate_grid(ref, specs);
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_suite_equal(got[i], expect[i]);
}

}  // namespace
}  // namespace mobcache
