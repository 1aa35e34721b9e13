#include "workload/scenario.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <unordered_set>

#include "exp/parallel.hpp"
#include "exp/result_store.hpp"

namespace mobcache {
namespace {

ScenarioConfig small_cfg() {
  ScenarioConfig c;
  c.apps = {AppId::Launcher, AppId::AudioPlayer, AppId::Email};
  c.total_accesses = 300'000;
  c.slice_mean = 30'000;
  c.seed = 5;
  return c;
}

TEST(Scenario, HitsTargetLengthAndName) {
  const Trace t = generate_scenario(small_cfg());
  EXPECT_GE(t.size(), 300'000u);
  EXPECT_LT(t.size(), 302'000u);
  EXPECT_EQ(t.name(), "mix-launcher-audio-email");
}

/// hash_trace of the streamed session `i` of a fleet with base seed
/// `base` — exactly what run_fleet feeds the simulator.
std::uint64_t session_hash(const PopulationModel& mix, std::uint64_t base,
                           std::uint64_t i) {
  ScenarioStream stream(sample_session(mix, sweep_point_seed(base, i)));
  return hash_trace(materialize(stream));
}

/// Golden streamed sessions of the mcbench fleet's shape (default mix,
/// ~60 k records each). ScenarioStream is compared with materialize() of
/// itself elsewhere, so these pins are what notices a changed record
/// sequence in the streaming path: app-source chunking, source restarts,
/// switch episodes and the per-app generators all feed the hash.
TEST(Scenario, GoldenFleetSessionHashes) {
  const PopulationModel mix = PopulationModel::default_mix(60'000);
  constexpr std::uint64_t kPins[] = {
      0x6a44e341d01397c2ull, 0x2fced89f84e339cfull, 0xd7e72714b613bd52ull,
      0xe35376236b4ae31full, 0xd1789d8a1e983326ull, 0xc1e4dc94c76852a8ull,
      0xf8cd64e60b5dd5f5ull, 0xdebf17d0ae13acdcull,
  };
  for (std::uint64_t i = 0; i < std::size(kPins); ++i) {
    EXPECT_EQ(session_hash(mix, 1, i), kPins[i]) << "session " << i;
  }
}

/// The CI fleet gate's shape: short default_mix(8 000) sessions, where one
/// source chunk covers about an app's whole share of the session.
TEST(Scenario, GoldenFleetGateSessionHashes) {
  const PopulationModel mix = PopulationModel::default_mix(8'000);
  EXPECT_EQ(session_hash(mix, 1, 0), 0xf0d0ad35203224d6ull);
  EXPECT_EQ(session_hash(mix, 1, 1), 0x0df4ddd5f1598ab8ull);
}

TEST(Scenario, Deterministic) {
  const Trace a = generate_scenario(small_cfg());
  const Trace b = generate_scenario(small_cfg());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 997)
    ASSERT_EQ(a[i].addr, b[i].addr);
}

TEST(Scenario, ModesConsistent) {
  const Trace t = generate_scenario(small_cfg());
  EXPECT_TRUE(t.modes_consistent_with_addresses());
}

TEST(Scenario, AppsHaveDisjointUserAddressSlots) {
  const Trace t = generate_scenario(small_cfg());
  // Each user address must fall inside exactly one app slot; slot indices
  // observed must cover all three apps.
  std::unordered_set<std::uint64_t> slots;
  for (const Access& a : t.accesses()) {
    if (a.mode != Mode::User) continue;
    slots.insert(a.addr / kAppSlotStride);
  }
  // Slot ids differ by app index; 3 apps → addresses spread over ≥3 slots
  // groups (base addresses already span slots, so compare via thread ids
  // instead for the strict claim below).
  EXPECT_GE(slots.size(), 3u);
}

TEST(Scenario, KernelSpaceSharedAcrossApps) {
  const Trace t = generate_scenario(small_cfg());
  // Kernel lines touched by different foreground slices overlap (shared
  // kernel): the number of distinct kernel lines must be far below what
  // three disjoint kernels would produce.
  const TraceSummary s = t.summarize();
  const Trace solo = generate_app_trace(AppId::Launcher, 100'000, 5);
  const TraceSummary ss = solo.summarize();
  EXPECT_LT(s.distinct_lines_kernel, 3 * ss.distinct_lines_kernel * 2);
  EXPECT_GT(s.kernel_fraction(), 0.08);
}

TEST(Scenario, ThreadIdsIdentifyApps) {
  const Trace t = generate_scenario(small_cfg());
  std::unordered_set<std::uint16_t> user_threads;
  for (const Access& a : t.accesses()) {
    if (a.mode == Mode::User) user_threads.insert(a.thread);
  }
  // Apps 0,1,2 have user thread bases 0,4,8.
  EXPECT_TRUE(user_threads.count(0));
  EXPECT_TRUE(user_threads.count(4));
  EXPECT_TRUE(user_threads.count(8));
}

TEST(Scenario, EmptyConfigYieldsEmptyTrace) {
  ScenarioConfig c;
  c.apps = {};
  c.total_accesses = 1000;
  EXPECT_TRUE(generate_scenario(c).empty());
  c.apps = {AppId::Launcher};
  c.total_accesses = 0;
  EXPECT_TRUE(generate_scenario(c).empty());
}

TEST(Scenario, SingleAppScenarioStillValid) {
  ScenarioConfig c;
  c.apps = {AppId::Game};
  c.total_accesses = 50'000;
  c.slice_mean = 10'000;
  const Trace t = generate_scenario(c);
  EXPECT_GE(t.size(), 50'000u);
  EXPECT_TRUE(t.modes_consistent_with_addresses());
}

}  // namespace
}  // namespace mobcache
