#include <gtest/gtest.h>

#include <iterator>

#include "common/env.hpp"
#include "core/scheme.hpp"
#include "exp/result_store.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

TEST(Workload, GeneratorHitsTargetLength) {
  const Trace t = generate_app_trace(AppId::Browser, 50'000, 1);
  EXPECT_GE(t.size(), 50'000u);
  EXPECT_LT(t.size(), 55'000u);  // at most one episode of overshoot headroom
}

TEST(Workload, DeterministicInSeed) {
  const Trace a = generate_app_trace(AppId::Game, 20'000, 7);
  const Trace b = generate_app_trace(AppId::Game, 20'000, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].addr, b[i].addr);
    ASSERT_EQ(a[i].type, b[i].type);
    ASSERT_EQ(a[i].mode, b[i].mode);
  }
}

TEST(Workload, SeedsProduceDifferentTraces) {
  const Trace a = generate_app_trace(AppId::Game, 20'000, 1);
  const Trace b = generate_app_trace(AppId::Game, 20'000, 2);
  std::size_t diff = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) diff += a[i].addr != b[i].addr;
  EXPECT_GT(diff, n / 4);
}

/// Golden record sequences: every app's trace at 100 000 records, seed 7,
/// fingerprinted field by field with the result store's hash_trace. A
/// generator change that moves one record or one Rng draw — in the phase
/// machine, the kernel model, the Zipf tables or the chunking — fails here.
TEST(Workload, GoldenTraceHashes) {
  struct Pin {
    AppId app;
    std::uint64_t hash;
  };
  constexpr Pin kPins[] = {
      {AppId::Launcher, 0x6d558dd59965bc2full},
      {AppId::Browser, 0x19f0ac2bd5cb30efull},
      {AppId::Game, 0xffca2f0208cdcab4ull},
      {AppId::VideoPlayer, 0x68fd9c65cfef27d2ull},
      {AppId::AudioPlayer, 0xbbb5de9a5827f625ull},
      {AppId::Email, 0xf5a518d6b8085d13ull},
      {AppId::Maps, 0xfffada35a78de114ull},
      {AppId::Social, 0x6fc41135b11393cbull},
      {AppId::ComputeFft, 0xe9e5adaac48281cbull},
      {AppId::ComputeMatmul, 0x411a605862bdb915ull},
      {AppId::Camera, 0x8c321f800d3a6f34ull},
      {AppId::Messenger, 0x11e3554f9da80990ull},
  };
  static_assert(std::size(kPins) == kAppCount);
  for (const Pin& p : kPins) {
    EXPECT_EQ(hash_trace(generate_app_trace(p.app, 100'000, 7)), p.hash)
        << app_name(p.app);
  }
}

/// generate_trace and generate_scenario reserve their target plus 4 Ki
/// records, and a generator stops within one emission unit past its
/// target, so a trace is allocated once rather than regrown by doubling
/// (which left up to half the buffer unused).
TEST(Workload, GeneratedTraceIsAllocatedOnce) {
  for (AppId id : all_apps()) {
    for (std::uint64_t records : {1'000ull, 120'000ull, 2'000'000ull}) {
      const Trace t = generate_app_trace(id, records, 7);
      EXPECT_LE(t.accesses().capacity(), t.size() + 4'096)
          << app_name(id) << " at " << records;
    }
  }
  ScenarioConfig sc;
  sc.apps = {AppId::Browser, AppId::Social, AppId::Messenger};
  sc.total_accesses = 300'000;
  sc.slice_mean = 20'000;
  sc.seed = 3;
  const Trace mix = generate_scenario(sc);
  EXPECT_LE(mix.accesses().capacity(), mix.size() + 4'096);
}

TEST(Workload, ModesConsistentWithAddressSpace) {
  for (AppId id : all_apps()) {
    const Trace t = generate_app_trace(id, 30'000, 3);
    EXPECT_TRUE(t.modes_consistent_with_addresses()) << app_name(id);
  }
}

TEST(Workload, InteractiveAppsMixBothModes) {
  for (AppId id : interactive_apps()) {
    const TraceSummary s = generate_app_trace(id, 100'000, 1).summarize();
    EXPECT_GT(s.kernel_fraction(), 0.05) << app_name(id);
    EXPECT_LT(s.kernel_fraction(), 0.60) << app_name(id);
    EXPECT_GT(s.writes, 0u) << app_name(id);
    EXPECT_GT(s.ifetches, s.total / 3) << app_name(id);
  }
}

TEST(Workload, ComputeAppsAreUserDominated) {
  for (AppId id : {AppId::ComputeFft, AppId::ComputeMatmul}) {
    const TraceSummary s = generate_app_trace(id, 100'000, 1).summarize();
    EXPECT_LT(s.kernel_fraction(), 0.05) << app_name(id);
  }
}

TEST(Workload, SuiteGeneratesAllRequestedApps) {
  const auto traces = generate_suite({AppId::Launcher, AppId::Email}, 10'000, 1);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].name(), "launcher");
  EXPECT_EQ(traces[1].name(), "email");
}

TEST(Workload, AppSpecsWellFormed) {
  for (AppId id : all_apps()) {
    const AppSpec spec = make_app(id);
    EXPECT_EQ(spec.id, id);
    EXPECT_FALSE(spec.phases.empty()) << app_name(id);
    if (!spec.transitions.empty()) {
      ASSERT_EQ(spec.transitions.size(), spec.phases.size()) << app_name(id);
      for (const auto& row : spec.transitions)
        ASSERT_EQ(row.size(), spec.phases.size()) << app_name(id);
    }
    for (const PhaseSpec& p : spec.phases) {
      EXPECT_GT(p.ws_bytes, 0u);
      EXPECT_GT(p.mean_phase_len, 0u);
      EXPECT_GE(p.store_fraction, 0.0);
      EXPECT_LE(p.store_fraction, 1.0);
    }
  }
}

/// The paper's motivating observation, pinned as a regression band: in
/// interactive apps, kernel references make up >40% of *L2* accesses
/// (>35% asserted here to absorb seed noise at short trace lengths), while
/// compute workloads stay below 15%.
class KernelShareBand : public ::testing::TestWithParam<AppId> {};

TEST_P(KernelShareBand, L2KernelShareInBand) {
  const AppId id = GetParam();
  const Trace t = generate_app_trace(id, 400'000, 42);
  const SimResult r = simulate(t, build_scheme(SchemeKind::BaselineSram));
  const bool interactive = make_app(id).interactive;
  if (interactive) {
    EXPECT_GT(r.l2_kernel_fraction(), 0.35) << app_name(id);
    EXPECT_LT(r.l2_kernel_fraction(), 0.75) << app_name(id);
  } else {
    EXPECT_LT(r.l2_kernel_fraction(), 0.15) << app_name(id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, KernelShareBand,
                         ::testing::ValuesIn(all_apps()),
                         [](const auto& info) {
                           return std::string(app_name(info.param));
                         });

TEST(Workload, BenchTraceLenReadsEnvironment) {
  // No env var → fallback.
  unsetenv("MOBCACHE_TRACE_LEN");
  EXPECT_EQ(bench_trace_len(123), 123u);
  setenv("MOBCACHE_TRACE_LEN", "4567", 1);
  EXPECT_EQ(bench_trace_len(123), 4567u);
  // Unparsable values now fail loudly (common/env.hpp) instead of silently
  // running the fallback length under a typo'd override.
  setenv("MOBCACHE_TRACE_LEN", "garbage", 1);
  EXPECT_THROW(bench_trace_len(123), EnvError);
  unsetenv("MOBCACHE_TRACE_LEN");
}

}  // namespace
}  // namespace mobcache
