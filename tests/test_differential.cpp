/// \file test_differential.cpp
/// Differential property suite: random L2 configurations over short random
/// app traces must produce byte-equal SimResults (result_to_record_json) on
/// every execution path — per-point simulate(), simulate() on the reference
/// kernel, the L1-miss-index replay, the demand-stream lane replay, the
/// runner at jobs=1 and jobs=4, and a warm result-store re-run. The fixed
/// scheme lists elsewhere pin these contracts on the paper's nine designs;
/// this suite pins them on draws of sizes, associativity, retention classes,
/// replacement policy, DP epoch length and fault rate.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "exp/parallel.hpp"
#include "exp/result_store.hpp"
#include "exp/runner.hpp"
#include "sim/batch.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDraws = 40;

/// Restores the process-wide default kernel mode when the scope ends.
struct DefaultModeGuard {
  KernelMode saved = SetAssocCache::default_kernel_mode();
  ~DefaultModeGuard() { SetAssocCache::set_default_kernel_mode(saved); }
};

/// One random draw: a design and the trace it runs on.
struct Draw {
  SchemeKind kind = SchemeKind::BaselineSram;
  SchemeParams params;
  /// The DP designs' knobs, applied to dynamic_scheme_config(kind, params);
  /// every draw makes them, so the sequence of draws does not depend on
  /// the kind.
  RetentionClass retention = RetentionClass::Lo;
  std::uint64_t epoch_accesses = 10'000;
  MonitorKind monitor = MonitorKind::ShadowUtility;
  AppId app = AppId::Launcher;
  std::uint64_t records = 0;
  std::uint64_t trace_seed = 0;
};

template <typename T>
T pick(Rng& rng, const std::vector<T>& options) {
  return options[rng.below(options.size())];
}

Draw draw(std::size_t i) {
  Rng rng(derived_seeds(0x5eedd1ffull, kDraws)[i]);
  Draw d;
  d.kind = static_cast<SchemeKind>(rng.below(kSchemeCount));
  SchemeParams& p = d.params;
  p.baseline_bytes = pick<std::uint64_t>(rng, {256ull << 10, 512ull << 10,
                                               1ull << 20, 2ull << 20});
  p.baseline_assoc = pick<std::uint32_t>(rng, {8, 16});
  p.shrunk_bytes = pick<std::uint64_t>(rng, {128ull << 10, 512ull << 10});
  p.shrunk_assoc = pick<std::uint32_t>(rng, {4, 8});
  p.sp_user_bytes =
      pick<std::uint64_t>(rng, {256ull << 10, 512ull << 10, 1ull << 20});
  p.sp_user_assoc = pick<std::uint32_t>(rng, {4, 8, 16});
  p.sp_kernel_bytes =
      pick<std::uint64_t>(rng, {64ull << 10, 128ull << 10, 256ull << 10});
  p.sp_kernel_assoc = pick<std::uint32_t>(rng, {4, 8});
  const std::vector<RetentionClass> classes{
      RetentionClass::Lo, RetentionClass::Mid, RetentionClass::Hi};
  p.mrstt_user = pick(rng, classes);
  p.mrstt_kernel = pick(rng, classes);
  d.retention = pick(rng, classes);
  p.refresh = pick(rng, std::vector<RefreshPolicy>{
                            RefreshPolicy::InvalidateOnExpiry,
                            RefreshPolicy::ScrubDirty, RefreshPolicy::ScrubAll});
  d.epoch_accesses =
      pick<std::uint64_t>(rng, {2'000, 5'000, 10'000, 25'000});
  d.monitor = pick(rng, std::vector<MonitorKind>{MonitorKind::ShadowUtility,
                                                 MonitorKind::HillClimb});
  p.repl = pick(rng, std::vector<ReplKind>{ReplKind::Lru, ReplKind::Fifo,
                                           ReplKind::Random, ReplKind::Plru,
                                           ReplKind::Srrip});
  p.xor_index = rng.chance(0.3);
  p.stt_write_bypass = rng.chance(0.3);
  if (rng.chance(0.4)) {
    p.fault = FaultConfig::from_rate(
        pick(rng, std::vector<double>{1e-4, 1e-3, 5e-3}),
        pick(rng, std::vector<EccKind>{EccKind::None, EccKind::Parity,
                                       EccKind::Secded}),
        static_cast<std::uint32_t>(rng.below(3)), rng.next_u64());
  }
  d.app = pick(rng, all_apps());
  // Short traces, some spanning several cancellation-poll strides.
  d.records = rng.range(5'000, 3 * kCancelPollStride);
  d.trace_seed = rng.next_u64();
  return d;
}

/// The draw's design: its scheme, or for DP-SRAM and DP-STT the scheme's
/// DynamicL2Config with the draw's retention, epoch and monitor, keyed by
/// all of them.
DesignSpec design_of(const Draw& d) {
  if (d.kind != SchemeKind::DynamicSram && d.kind != SchemeKind::DynamicStt)
    return scheme_design(d.kind, d.params);
  DynamicL2Config c = dynamic_scheme_config(d.kind, d.params);
  c.retention = d.retention;
  c.epoch_accesses = d.epoch_accesses;
  c.controller.monitor = d.monitor;
  DesignSpec spec;
  spec.name = scheme_name(d.kind);
  spec.build = [c] { return std::make_unique<DynamicPartitionedL2>(c); };
  spec.design_hash = ContentHasher()
                         .mix(std::string("differential-dp"))
                         .mix(static_cast<std::uint64_t>(d.kind))
                         .mix(hash_scheme_params(d.params))
                         .mix(static_cast<std::uint64_t>(d.retention))
                         .mix(d.epoch_accesses)
                         .mix(static_cast<std::uint64_t>(d.monitor))
                         .digest();
  spec.kind = d.kind;
  return spec;
}

class Differential : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobcache_diff_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(Differential, EveryPathGivesTheSameBytes) {
  const Draw d = draw(GetParam());
  const DesignSpec design = design_of(d);
  const Trace trace = generate_app_trace(d.app, d.records, d.trace_seed);
  const SimOptions opts;
  SCOPED_TRACE(std::string(scheme_name(d.kind)) + " on " + trace.name() +
               " x " + std::to_string(d.records));

  const std::string want =
      result_to_record_json(simulate(trace, design.build(), opts));

  {
    // Arrays read the process default when built, so the design is built
    // inside the scope; the guard restores the default even on failure.
    const DefaultModeGuard guard;
    SetAssocCache::set_default_kernel_mode(KernelMode::Reference);
    EXPECT_EQ(result_to_record_json(simulate(trace, design.build(), opts)),
              want)
        << "reference kernel";
  }

  const L1MissIndex index =
      build_l1_miss_index(trace, opts, PointSupervisor(opts));
  const std::unique_ptr<L2Interface> replayed = design.build();
  EXPECT_EQ(result_to_record_json(replay_l1_miss_index(
                trace, index, *replayed, PointSupervisor(opts))),
            want)
      << "index replay";

  const DemandStream stream = build_demand_stream(trace, opts);
  const std::unique_ptr<L2Interface> lane = design.build();
  const std::vector<BatchLaneOutcome> lanes =
      simulate_batch_lanes(stream, {lane.get()}, opts);
  ASSERT_TRUE(lanes[0].ok());
  EXPECT_EQ(result_to_record_json(*lanes[0].result), want) << "lane replay";

  // The runner only shares an L1 pass between two or more designs on a
  // trace, so the draw rides with a default-configured companion.
  const std::vector<DesignSpec> specs{design,
                                      scheme_design(SchemeKind::DynamicStt)};
  for (const unsigned jobs : {1u, 4u}) {
    ExperimentRunner runner({trace});
    runner.jobs = jobs;
    const std::vector<SchemeSuiteResult> got = runner.run_designs(specs);
    EXPECT_EQ(result_to_record_json(got[0].per_workload[0]), want)
        << "runner jobs=" << jobs;
  }

  {
    ResultStore cold(dir_.string());
    ExperimentRunner runner({trace});
    runner.result_store = &cold;
    (void)runner.run_designs(specs);
    EXPECT_EQ(cold.stats().stores, specs.size());
  }
  ResultStore warm(dir_.string());
  ExperimentRunner runner({trace});
  runner.result_store = &warm;
  const std::vector<SchemeSuiteResult> got = runner.run_designs(specs);
  EXPECT_EQ(warm.stats().hits, specs.size());
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(result_to_record_json(got[0].per_workload[0]), want)
      << "warm store";
}

INSTANTIATE_TEST_SUITE_P(Draws, Differential,
                         ::testing::Range<std::size_t>(0, kDraws));

}  // namespace
}  // namespace mobcache
