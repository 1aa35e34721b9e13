#include "exp/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "core/scheme.hpp"
#include "energy/technology.hpp"
#include "exp/runner.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

namespace fs = std::filesystem;

/// Per-test store directory; removed on teardown. gtest_discover_tests runs
/// each TEST in its own process, so a name derived from the test name is
/// collision-free even under ctest -j.
class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("mobcache_store_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

/// A SimResult exercising the awkward corners of the record format: doubles
/// that do not round-trip at low precision, zeros, and large counters.
SimResult sample_result() {
  SimResult r;
  r.workload = "launcher";
  r.scheme = "SP-MRSTT";
  r.records = 123456789;
  r.cycles = 987654321;
  r.cpi = 1.0 / 3.0;
  r.l1i.accesses[0] = 11;
  r.l1d.accesses[1] = 22;
  r.l2.accesses[0] = 1000;
  r.l2.hits[0] = 900;
  r.l2.expired_blocks = 7;
  r.l2_energy.leakage_nj = 0.1;  // not exactly representable
  r.l2_energy.read_nj = 1e-17;
  r.l2_energy.write_nj = 12345.6789012345678;
  r.l2_energy.dram_nj = 3.0e17;
  r.l1_energy_nj = 2.5;
  r.l2_capacity_bytes = 2ull << 20;
  r.l2_avg_enabled_bytes = 1310720.5;
  r.l2_quarantined_ways = 3;
  r.stall_l2_hit_cycles = 42;
  r.stall_l2_miss_cycles = 4242;
  r.prefetches_issued = 5;
  return r;
}

void expect_equal(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.cycles, b.cycles);
  // Bit-exact, not approximate: resumed sweeps must be byte-identical.
  EXPECT_EQ(a.cpi, b.cpi);
  EXPECT_EQ(a.l1i.accesses[0], b.l1i.accesses[0]);
  EXPECT_EQ(a.l1d.accesses[1], b.l1d.accesses[1]);
  EXPECT_EQ(a.l2.accesses[0], b.l2.accesses[0]);
  EXPECT_EQ(a.l2.hits[0], b.l2.hits[0]);
  EXPECT_EQ(a.l2.expired_blocks, b.l2.expired_blocks);
  EXPECT_EQ(a.l2_energy.leakage_nj, b.l2_energy.leakage_nj);
  EXPECT_EQ(a.l2_energy.read_nj, b.l2_energy.read_nj);
  EXPECT_EQ(a.l2_energy.write_nj, b.l2_energy.write_nj);
  EXPECT_EQ(a.l2_energy.dram_nj, b.l2_energy.dram_nj);
  EXPECT_EQ(a.l1_energy_nj, b.l1_energy_nj);
  EXPECT_EQ(a.l2_capacity_bytes, b.l2_capacity_bytes);
  EXPECT_EQ(a.l2_avg_enabled_bytes, b.l2_avg_enabled_bytes);
  EXPECT_EQ(a.l2_quarantined_ways, b.l2_quarantined_ways);
  EXPECT_EQ(a.stall_l2_hit_cycles, b.stall_l2_hit_cycles);
  EXPECT_EQ(a.stall_l2_miss_cycles, b.stall_l2_miss_cycles);
  EXPECT_EQ(a.prefetches_issued, b.prefetches_issued);
}

/// A keyed grid point whose builder counts its calls — one per computed
/// cell — and throws NumericError("injected") while `*fail` is set.
DesignSpec counted_design(std::uint64_t design_hash, SchemeKind kind,
                          int* calls, const bool* fail = nullptr) {
  DesignSpec d;
  d.name = scheme_name(kind);
  d.design_hash = design_hash;
  d.build = [kind, calls, fail]() -> std::unique_ptr<L2Interface> {
    ++*calls;
    if (fail != nullptr && *fail) throw NumericError("injected");
    return build_scheme(kind);
  };
  return d;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Asserts every record under `want` exists byte-identical under `got`;
/// returns how many were compared.
std::size_t expect_same_records(const fs::path& want, const fs::path& got) {
  std::size_t compared = 0;
  for (const auto& e : fs::directory_iterator(want)) {
    const fs::path other = got / e.path().filename();
    EXPECT_TRUE(fs::exists(other)) << other;
    EXPECT_EQ(slurp(e.path()), slurp(other)) << e.path().filename();
    ++compared;
  }
  return compared;
}

TEST(ContentHasherTest, StableAndOrderSensitive) {
  const std::uint64_t a =
      ContentHasher().mix(std::uint64_t{1}).mix(std::uint64_t{2}).digest();
  const std::uint64_t b =
      ContentHasher().mix(std::uint64_t{1}).mix(std::uint64_t{2}).digest();
  const std::uint64_t c =
      ContentHasher().mix(std::uint64_t{2}).mix(std::uint64_t{1}).digest();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Length-prefixed strings: ("ab","c") must not collide with ("a","bc").
  EXPECT_NE(
      ContentHasher().mix(std::string("ab")).mix(std::string("c")).digest(),
      ContentHasher().mix(std::string("a")).mix(std::string("bc")).digest());
  // Doubles hash by bit pattern, so the sign of zero matters.
  EXPECT_NE(ContentHasher().mix(0.0).digest(),
            ContentHasher().mix(-0.0).digest());
}

TEST(ContentHasherTest, KeyComponentsAllMatter) {
  const std::uint64_t base = result_point_key(1, 2, 3, 4, 5);
  EXPECT_EQ(base, result_point_key(1, 2, 3, 4, 5));
  EXPECT_NE(base, result_point_key(9, 2, 3, 4, 5));
  EXPECT_NE(base, result_point_key(1, 9, 3, 4, 5));
  EXPECT_NE(base, result_point_key(1, 2, 9, 4, 5));
  EXPECT_NE(base, result_point_key(1, 2, 3, 9, 5));
  EXPECT_NE(base, result_point_key(1, 2, 3, 4, 9));
}

TEST(ContentHasherTest, CacheConfigNameIsCosmetic) {
  CacheConfig a;
  CacheConfig b = a;
  b.name = "renamed";
  EXPECT_EQ(hash_cache_config(a), hash_cache_config(b));
  b.size_bytes *= 2;
  EXPECT_NE(hash_cache_config(a), hash_cache_config(b));
}

TEST(ContentHasherTest, SchemeParamsFaultFieldsAreKeyed) {
  SchemeParams a;
  SchemeParams b = a;
  EXPECT_EQ(hash_scheme_params(a), hash_scheme_params(b));
  b.fault.seed += 1;
  EXPECT_NE(hash_scheme_params(a), hash_scheme_params(b));
}

TEST(ContentHasherTest, TechnologyPerturbationChangesKey) {
  TechnologyConfig a;
  TechnologyConfig b = a;
  EXPECT_EQ(hash_technology(a), hash_technology(b));
  b.stt_leak_factor *= 2.0;
  EXPECT_NE(hash_technology(a), hash_technology(b));
}

TEST(ContentHasherTest, TraceFingerprintSeesEveryRecord) {
  const Trace t1 = generate_app_trace(AppId::Launcher, 2000, 1);
  const Trace t2 = generate_app_trace(AppId::Launcher, 2000, 1);
  const Trace t3 = generate_app_trace(AppId::Launcher, 2000, 2);
  // Note: nearby target lengths can land on the same episode boundary and
  // generate the *identical* trace, so the length probe doubles the target.
  const Trace t4 = generate_app_trace(AppId::Launcher, 4000, 1);
  EXPECT_EQ(hash_trace(t1), hash_trace(t2));
  EXPECT_NE(hash_trace(t1), hash_trace(t3));
  EXPECT_NE(hash_trace(t1), hash_trace(t4));
}

TEST(RecordFormat, ExactRoundTrip) {
  const SimResult r = sample_result();
  const std::string json = result_to_record_json(r);
  const std::optional<SimResult> back = result_from_record_json(json);
  ASSERT_TRUE(back.has_value());
  expect_equal(r, *back);
}

TEST(RecordFormat, RejectsTruncationAndGarbage) {
  const std::string json = result_to_record_json(sample_result());
  EXPECT_FALSE(result_from_record_json("").has_value());
  EXPECT_FALSE(result_from_record_json("{}").has_value());
  EXPECT_FALSE(
      result_from_record_json(json.substr(0, json.size() / 2)).has_value());
}

TEST_F(ResultStoreTest, StoreThenLookupAcrossReopen) {
  const SimResult r = sample_result();
  {
    ResultStore store(dir());
    EXPECT_FALSE(store.lookup(42).has_value());
    store.store(42, r);
    const auto hit = store.lookup(42);
    ASSERT_TRUE(hit.has_value());
    expect_equal(r, *hit);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().stores, 1u);
  }
  // A fresh process (modeled by a fresh object) must see the record.
  ResultStore reopened(dir());
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_EQ(reopened.stats().corrupt_skipped, 0u);
  const auto hit = reopened.lookup(42);
  ASSERT_TRUE(hit.has_value());
  expect_equal(r, *hit);
}

TEST_F(ResultStoreTest, NoTempLeftoversAndStrayTempsAreCleaned) {
  {
    ResultStore store(dir());
    store.store(1, sample_result());
    store.store(2, sample_result());
  }
  for (const auto& e : fs::directory_iterator(dir()))
    EXPECT_EQ(e.path().filename().string().rfind(".tmp-", 0),
              std::string::npos)
        << "temp file survived: " << e.path();

  // A crash mid-write leaves a .tmp- file; opening the store removes it.
  std::ofstream(fs::path(dir()) / ".tmp-crashed") << "partial";
  ResultStore reopened(dir());
  EXPECT_FALSE(fs::exists(fs::path(dir()) / ".tmp-crashed"));
  EXPECT_EQ(reopened.stats().loaded, 2u);
}

TEST_F(ResultStoreTest, CorruptRecordIsSkippedAndRecomputed) {
  std::string victim;
  {
    ResultStore store(dir());
    store.store(7, sample_result());
    store.store(8, sample_result());
  }
  for (const auto& e : fs::directory_iterator(dir())) {
    victim = e.path().string();
    break;
  }
  ASSERT_FALSE(victim.empty());

  // Flip one payload byte: the checksum must reject the record.
  std::string contents;
  {
    std::ifstream in(victim);
    std::stringstream ss;
    ss << in.rdbuf();
    contents = ss.str();
  }
  contents[contents.size() / 2] ^= 0x01;
  std::ofstream(victim, std::ios::trunc) << contents;

  ResultStore store(dir());
  EXPECT_EQ(store.stats().corrupt_skipped, 1u);
  EXPECT_EQ(store.stats().loaded, 1u);
  // The corrupt key misses; storing it again repairs the store.
  const bool hit7 = store.lookup(7).has_value();
  const bool hit8 = store.lookup(8).has_value();
  EXPECT_NE(hit7, hit8);  // exactly one survived
  store.store(hit7 ? 8 : 7, sample_result());
  ResultStore repaired(dir());
  EXPECT_EQ(repaired.stats().loaded, 2u);
  EXPECT_EQ(repaired.stats().corrupt_skipped, 0u);
}

TEST_F(ResultStoreTest, TruncatedRecordIsCorrupt) {
  {
    ResultStore store(dir());
    store.store(9, sample_result());
  }
  std::string path;
  for (const auto& e : fs::directory_iterator(dir())) path = e.path().string();
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 10);  // torn write: tail lost

  ResultStore store(dir());
  EXPECT_EQ(store.stats().corrupt_skipped, 1u);
  EXPECT_FALSE(store.lookup(9).has_value());
}

TEST_F(ResultStoreTest, MemoizedMapServesHitsAndPersistsMisses) {
  // A keyed grid computes and persists every cold cell; a warm run through
  // a reopened store computes nothing and serves identical results.
  ExperimentRunner runner({AppId::Launcher}, 2000, 7);
  int computed = 0;
  const std::vector<SchemeKind> kinds = {
      SchemeKind::BaselineSram, SchemeKind::ShrunkSram,
      SchemeKind::StaticPartMrstt, SchemeKind::DynamicStt};
  std::vector<DesignSpec> specs;
  for (std::size_t i = 0; i < kinds.size(); ++i)
    specs.push_back(counted_design(101 + i, kinds[i], &computed));

  ResultStore store(dir());
  runner.result_store = &store;
  const auto cold = runner.run_designs_outcomes(specs, /*keep_going=*/false);
  ASSERT_EQ(cold.size(), 4u);
  EXPECT_EQ(computed, 4);
  EXPECT_EQ(store.stats().stores, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(cold[i].ok());
    EXPECT_EQ(cold[i].value->per_workload[0].scheme,
              build_scheme(kinds[i])->describe());
  }

  computed = 0;
  ResultStore warm_store(dir());
  runner.result_store = &warm_store;
  const auto warm = runner.run_designs_outcomes(specs, /*keep_going=*/false);
  EXPECT_EQ(computed, 0);
  for (std::size_t i = 0; i < 4; ++i)
    expect_equal(cold[i].value->per_workload[0],
                 warm[i].value->per_workload[0]);
  EXPECT_EQ(warm_store.stats().hits, 4u);
}

TEST_F(ResultStoreTest, KilledSweepResumesByteIdentical) {
  // The kill-and-resume contract from docs/RESULT_STORE.md: a sweep that
  // dies mid-run (here: after persisting a prefix of its points, with one
  // record additionally corrupted on disk) must, when resumed, produce
  // records byte-identical to an uninterrupted cold run.
  ExperimentRunner runner({AppId::Launcher, AppId::Email}, 5000, 42);

  const fs::path cold_dir = fs::path(dir()) / "cold";
  const fs::path resumed_dir = fs::path(dir()) / "resumed";

  // Uninterrupted reference run.
  {
    ResultStore store(cold_dir.string());
    runner.result_store = &store;
    (void)runner.run_schemes(
        {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  }

  // "Killed" run: same sweep, but afterwards delete one record (a point the
  // process never got to) and corrupt another (a torn write at kill time).
  {
    ResultStore store(resumed_dir.string());
    runner.result_store = &store;
    (void)runner.run_schemes(
        {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  }
  std::vector<fs::path> records;
  for (const auto& e : fs::directory_iterator(resumed_dir))
    records.push_back(e.path());
  std::sort(records.begin(), records.end());
  ASSERT_GE(records.size(), 3u);
  fs::remove(records[0]);
  fs::resize_file(records[1], fs::file_size(records[1]) / 2);

  // Resume: only the missing + corrupt points recompute.
  {
    ResultStore store(resumed_dir.string());
    EXPECT_EQ(store.stats().corrupt_skipped, 1u);
    runner.result_store = &store;
    (void)runner.run_schemes(
        {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
    EXPECT_EQ(store.stats().hits, records.size() - 2);
    EXPECT_EQ(store.stats().stores, 2u);
  }
  runner.result_store = nullptr;

  // Every record file must now match the cold run byte for byte.
  EXPECT_EQ(expect_same_records(cold_dir, resumed_dir), records.size());
}

TEST_F(ResultStoreTest, PoisonRecordRoundTripsAcrossReopen) {
  {
    ResultStore store(dir());
    store.store_failure(777, {"numeric", "lane cpi is not finite"});
    EXPECT_EQ(store.stats().poison_stores, 1u);
    // A poisoned key serves no value...
    EXPECT_FALSE(store.lookup(777).has_value());
    // ...but does serve its failure.
    const auto f = store.lookup_failure(777);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->error_type, "numeric");
    EXPECT_EQ(f->message, "lane cpi is not finite");
  }
  ResultStore reopened(dir());
  EXPECT_EQ(reopened.stats().poisoned_loaded, 1u);
  EXPECT_EQ(reopened.stats().corrupt_skipped, 0u);
  const auto f = reopened.lookup_failure(777);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->error_type, "numeric");
  EXPECT_EQ(reopened.stats().poison_hits, 1u);
}

TEST_F(ResultStoreTest, ValueStoreRehabilitatesAPoisonedKey) {
  ResultStore store(dir());
  store.store_failure(5, {"deadline", "too slow"});
  store.store(5, sample_result());
  EXPECT_FALSE(store.lookup_failure(5).has_value());
  EXPECT_TRUE(store.lookup(5).has_value());
  // And the rehabilitation survives reopen: the value record atomically
  // replaced the poison record on disk.
  ResultStore reopened(dir());
  EXPECT_EQ(reopened.stats().poisoned_loaded, 0u);
  EXPECT_TRUE(reopened.lookup(5).has_value());
}

TEST_F(ResultStoreTest, MemoizedMapOutcomesQuarantinesKnownBadPoints) {
  ExperimentRunner runner({AppId::Launcher}, 2000, 7);
  int computed = 0;
  const bool fail = true;
  const std::vector<DesignSpec> specs = {
      counted_design(11, SchemeKind::BaselineSram, &computed),
      counted_design(12, SchemeKind::ShrunkSram, &computed, &fail),
      counted_design(13, SchemeKind::DynamicStt, &computed)};

  {
    ResultStore store(dir());
    runner.result_store = &store;
    const auto cold = runner.run_designs_outcomes(specs, /*keep_going=*/true);
    ASSERT_EQ(cold.size(), 3u);
    EXPECT_EQ(computed, 3);
    EXPECT_TRUE(cold[0].ok());
    ASSERT_FALSE(cold[1].ok());
    EXPECT_EQ(cold[1].failure->error_type, "numeric");
    EXPECT_FALSE(cold[1].failure->quarantined);  // fresh failure, not cached
    EXPECT_TRUE(cold[2].ok());
    EXPECT_EQ(store.stats().poison_stores, 1u);
  }

  // Resume against the same directory: values hit, the bad point is served
  // from its poison record — no builder may run at all.
  computed = 0;
  ResultStore warm(dir());
  runner.result_store = &warm;
  const auto resumed = runner.run_designs_outcomes(specs, /*keep_going=*/true);
  EXPECT_EQ(computed, 0);
  EXPECT_TRUE(resumed[0].ok());
  ASSERT_FALSE(resumed[1].ok());
  EXPECT_TRUE(resumed[1].failure->quarantined);
  EXPECT_EQ(resumed[1].failure->index, 1u);
  EXPECT_EQ(resumed[1].failure->error_type, "numeric");
  EXPECT_EQ(resumed[1].failure->message, "injected");
  EXPECT_TRUE(resumed[2].ok());
  EXPECT_EQ(warm.stats().hits, 2u);
  EXPECT_EQ(warm.stats().poison_hits, 1u);
}

TEST_F(ResultStoreTest, RetryFailedReRunsQuarantinedPoints) {
  ExperimentRunner runner({AppId::Launcher}, 2000, 7);
  bool fail = true;
  int computed = 0;
  const std::vector<DesignSpec> specs = {
      counted_design(21, SchemeKind::BaselineSram, &computed, &fail)};

  {
    ResultStore store(dir());
    runner.result_store = &store;
    (void)runner.run_designs_outcomes(specs, /*keep_going=*/true);
    EXPECT_EQ(store.stats().poison_stores, 1u);
  }

  // The flaky cause is fixed; --retry-failed bypasses the quarantine and a
  // successful re-run replaces the poison record with a value for good.
  fail = false;
  computed = 0;
  {
    ResultStore store(dir());
    store.set_retry_failed(true);
    runner.result_store = &store;
    const auto out = runner.run_designs_outcomes(specs, /*keep_going=*/true);
    EXPECT_EQ(computed, 1);
    EXPECT_TRUE(out[0].ok());
  }
  computed = 0;
  ResultStore healed(dir());
  runner.result_store = &healed;
  const auto warm = runner.run_designs_outcomes(specs, /*keep_going=*/true);
  EXPECT_EQ(computed, 0);
  EXPECT_TRUE(warm[0].ok());
  EXPECT_FALSE(warm[0].failure.has_value());
  EXPECT_EQ(healed.stats().hits, 1u);
}

TEST_F(ResultStoreTest, CancelledSweepNeverPoisonsAndResumesByteIdentical) {
  // The SIGTERM-drain contract: cancellation mid-sweep persists the
  // completed prefix, poisons nothing, and a resumed run fills in the rest
  // so the store ends byte-identical to an uninterrupted one.
  ExperimentRunner runner({AppId::Launcher}, 2000, 7);
  int computed = 0;
  bool cancel = false;
  std::vector<DesignSpec> specs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    specs.push_back(counted_design(31 + i, headline_schemes()[i], &computed));
  }
  // Point 1's builder sees the signal land and its own supervision stops
  // it: the cell throws CancelledError, which must not poison it, and the
  // serial executor's pre-point check keeps 2..4 from running.
  const auto build_1 = specs[1].build;
  specs[1].build = [build_1, &cancel] {
    if (cancel) {
      global_cancel_token().request_cancel();
      global_cancel_token().check();
    }
    return build_1();
  };

  const fs::path cold_dir = fs::path(dir()) / "cold";
  const fs::path resumed_dir = fs::path(dir()) / "resumed";
  {
    ResultStore store(cold_dir.string());
    runner.result_store = &store;
    (void)runner.run_designs_outcomes(specs, /*keep_going=*/true);
  }
  cancel = true;
  {
    ResultStore store(resumed_dir.string());
    runner.result_store = &store;
    EXPECT_THROW(runner.run_designs_outcomes(specs, /*keep_going=*/true),
                 CancelledError);
    global_cancel_token().reset();
    // Point 0 completed and was persisted; 1 was cancelled, 2..4 never ran,
    // and none of them was poisoned.
    EXPECT_EQ(store.stats().stores, 1u);
    EXPECT_EQ(store.stats().poison_stores, 0u);
  }
  cancel = false;
  computed = 0;
  {
    ResultStore store(resumed_dir.string());
    EXPECT_EQ(store.stats().poisoned_loaded, 0u);
    runner.result_store = &store;
    const auto out = runner.run_designs_outcomes(specs, /*keep_going=*/true);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(computed, 4);
    for (const auto& o : out) EXPECT_TRUE(o.ok());
  }
  runner.result_store = nullptr;
  EXPECT_EQ(expect_same_records(cold_dir, resumed_dir), specs.size());
}

TEST_F(ResultStoreTest, HookFailuresAndFailFastCallsNeverTouchPoison) {
  ExperimentRunner runner({AppId::Launcher}, 2000, 7);
  int computed = 0;
  bool fail = true;
  const std::vector<DesignSpec> specs = {
      counted_design(41, SchemeKind::BaselineSram, &computed),
      counted_design(42, SchemeKind::ShrunkSram, &computed, &fail)};
  const auto hook = [](std::size_t s) {
    if (s == 0) throw NumericError("hooked");
  };

  ResultStore store(dir());
  runner.result_store = &store;
  // Spec 0 fails at its point hook, so no cell of it runs and nothing is
  // persisted for it; spec 1 fails in its cell and is poisoned.
  const auto out = runner.run_designs_outcomes(specs, /*keep_going=*/true, hook);
  ASSERT_FALSE(out[0].ok());
  EXPECT_EQ(out[0].failure->message, "hooked");
  EXPECT_FALSE(out[0].failure->quarantined);
  ASSERT_FALSE(out[1].ok());
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(store.stats().stores, 0u);
  EXPECT_EQ(store.stats().poison_stores, 1u);

  // Fail-fast ignores spec 1's poison record: the cell re-runs, and its
  // failure propagates without writing another.
  computed = 0;
  EXPECT_THROW(runner.run_designs_outcomes(specs, /*keep_going=*/false),
               NumericError);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(store.stats().poison_hits, 0u);
  EXPECT_EQ(store.stats().poison_stores, 1u);

  // Once it succeeds, the value replaces the poison record on disk.
  fail = false;
  (void)runner.run_designs_outcomes(specs, /*keep_going=*/false);
  EXPECT_EQ(store.stats().poison_hits, 0u);
  runner.result_store = nullptr;
  ResultStore reopened(dir());
  EXPECT_EQ(reopened.stats().loaded, 2u);
  EXPECT_EQ(reopened.stats().poisoned_loaded, 0u);
}

TEST_F(ResultStoreTest, RunnerMemoizationMatchesDirectRun) {
  // Served-from-store results must be indistinguishable from computed ones
  // at the SimResult level, not just on headline numbers.
  ExperimentRunner runner({AppId::Launcher}, 4000, 7);
  const SchemeSuiteResult direct = runner.run_scheme(SchemeKind::DynamicStt);

  ResultStore store(dir());
  runner.result_store = &store;
  const SchemeSuiteResult cold = runner.run_scheme(SchemeKind::DynamicStt);
  const SchemeSuiteResult warm = runner.run_scheme(SchemeKind::DynamicStt);
  runner.result_store = nullptr;

  ASSERT_EQ(direct.per_workload.size(), warm.per_workload.size());
  for (std::size_t i = 0; i < direct.per_workload.size(); ++i) {
    expect_equal(direct.per_workload[i], cold.per_workload[i]);
    expect_equal(direct.per_workload[i], warm.per_workload[i]);
  }
  EXPECT_GT(store.stats().hits, 0u);
}

TEST_F(ResultStoreTest, TelemetryRunsAreNotMemoized) {
  // A cached SimResult cannot replay telemetry events, so runs with a
  // telemetry side channel must bypass the store entirely.
  ExperimentRunner runner({AppId::Launcher}, 2000, 7);
  ResultStore store(dir());
  runner.result_store = &store;
  runner.collect_telemetry = true;
  (void)runner.run_scheme(SchemeKind::BaselineSram);
  EXPECT_EQ(store.stats().hits + store.stats().misses, 0u);
  EXPECT_EQ(store.stats().stores, 0u);
}

}  // namespace
}  // namespace mobcache
