#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "exp/result_store.hpp"
#include "exp/runner.hpp"

namespace mobcache {
namespace {

bool bit_equal(const SeedStat& a, const SeedStat& b) {
  return std::memcmp(&a, &b, sizeof(SeedStat)) == 0;
}

TEST(MultiSeed, AggregatesAcrossSeeds) {
  const auto results = run_multi_seed(
      {AppId::Launcher}, 60'000, {1, 2, 3},
      {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt});
  ASSERT_EQ(results.size(), 2u);

  // The baseline normalizes to exactly 1.0 for every seed.
  EXPECT_NEAR(results[0].cache_energy.mean, 1.0, 1e-12);
  EXPECT_NEAR(results[0].cache_energy.stddev, 0.0, 1e-12);
  EXPECT_NEAR(results[0].exec_time.mean, 1.0, 1e-12);

  // The design varies across seeds but stays well below the baseline.
  const MultiSeedResult& mrstt = results[1];
  EXPECT_LT(mrstt.cache_energy.max, 0.6);
  EXPECT_LE(mrstt.cache_energy.min, mrstt.cache_energy.mean);
  EXPECT_LE(mrstt.cache_energy.mean, mrstt.cache_energy.max);
  EXPECT_GE(mrstt.cache_energy.stddev, 0.0);
}

TEST(MultiSeed, SingleSeedHasZeroSpread) {
  const auto results = run_multi_seed({AppId::AudioPlayer}, 50'000, {7},
                                      {SchemeKind::BaselineSram,
                                       SchemeKind::ShrunkSram});
  EXPECT_EQ(results[1].cache_energy.stddev, 0.0);
  EXPECT_EQ(results[1].cache_energy.min, results[1].cache_energy.max);
}

TEST(MultiSeed, DeterministicGivenSameSeeds) {
  const auto a = run_multi_seed({AppId::Email}, 50'000, {5, 6},
                                {SchemeKind::BaselineSram,
                                 SchemeKind::DynamicStt});
  const auto b = run_multi_seed({AppId::Email}, 50'000, {5, 6},
                                {SchemeKind::BaselineSram,
                                 SchemeKind::DynamicStt});
  EXPECT_DOUBLE_EQ(a[1].cache_energy.mean, b[1].cache_energy.mean);
  EXPECT_DOUBLE_EQ(a[1].exec_time.stddev, b[1].exec_time.stddev);
}

TEST(MultiSeed, SecondRunWithStoreComputesNothing) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mobcache_multiseed_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::vector<AppId> apps = {AppId::Launcher, AppId::Email};
  const std::vector<std::uint64_t> seeds = {3, 4};
  const std::vector<SchemeKind> schemes = {SchemeKind::BaselineSram,
                                           SchemeKind::StaticPartMrstt,
                                           SchemeKind::DynamicStt};
  const std::uint64_t cells = seeds.size() * schemes.size() * apps.size();

  // Each call opens the store afresh, as a second process would.
  auto run = [&](ResultStoreStats& stats) {
    ResultStore store(dir.string());
    auto r = run_multi_seed(apps, 20'000, seeds, schemes, {}, 2, &store);
    stats = store.stats();
    return r;
  };
  ResultStoreStats cold_stats, warm_stats;
  const auto cold = run(cold_stats);
  const auto warm = run(warm_stats);
  fs::remove_all(dir);

  EXPECT_EQ(cold_stats.hits, 0u);
  EXPECT_EQ(cold_stats.misses, cells);
  EXPECT_EQ(cold_stats.stores, cells);
  EXPECT_EQ(warm_stats.loaded, cells);
  EXPECT_EQ(warm_stats.hits, cells);
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_EQ(warm_stats.stores, 0u);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].name, warm[i].name);
    EXPECT_TRUE(bit_equal(cold[i].cache_energy, warm[i].cache_energy)) << i;
    EXPECT_TRUE(bit_equal(cold[i].exec_time, warm[i].exec_time)) << i;
    EXPECT_TRUE(bit_equal(cold[i].miss_rate, warm[i].miss_rate)) << i;
  }
}

}  // namespace
}  // namespace mobcache
