#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "workload/app_model.hpp"

namespace mobcache {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequencyTracksP) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricAtLeastOneAndMeanMatches) {
  Rng rng(23);
  const double p = 0.01;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.geometric(p);
    ASSERT_GE(v, 1u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 1.0 / p, 0.05 / p);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 2.0);
}

TEST(Rng, WeightedrespectsWeights) {
  Rng rng(31);
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) ++counts[rng.weighted({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedZeroWeightNeverPicked) {
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) EXPECT_NE(rng.weighted({1.0, 0.0, 1.0}), 1u);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, FirstItemMostPopularAndAllInRange) {
  const double alpha = GetParam();
  ZipfSampler z(64, alpha);
  Rng rng(41);
  std::array<int, 64> counts{};
  for (int i = 0; i < 60000; ++i) {
    const std::size_t s = z.sample(rng);
    ASSERT_LT(s, 64u);
    ++counts[s];
  }
  // Item 0 must dominate every distant item under any positive skew.
  EXPECT_GT(counts[0], counts[32]);
  EXPECT_GT(counts[0], counts[63]);
  // Overall counts must be monotone-ish: head quarter beats tail quarter.
  int head = 0;
  int tail = 0;
  for (int i = 0; i < 16; ++i) head += counts[i];
  for (int i = 48; i < 64; ++i) tail += counts[i];
  EXPECT_GT(head, tail);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 2.0));

TEST(Zipf, SingleItem) {
  ZipfSampler z(1, 1.0);
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Zipf, ZeroSizeDegradesToSingleton) {
  ZipfSampler z(0, 1.0);
  Rng rng(47);
  EXPECT_EQ(z.size(), 1u);
  EXPECT_EQ(z.sample(rng), 0u);
}

/// The per-instance CDF every ZipfSampler computed before tables were
/// shared, kept verbatim as the reference the shared tables must match.
std::vector<double> reference_cdf(std::size_t n, double alpha) {
  std::vector<double> cdf(n == 0 ? 1 : n);
  double sum = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

/// The binary search ZipfSampler::index replaced, over a reference table.
std::size_t reference_index(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

/// ZipfSampler::sample over a reference table.
std::size_t reference_sample(const std::vector<double>& cdf, Rng& rng) {
  return reference_index(cdf, rng.uniform());
}

TEST(Zipf, SharedTableMatchesPerInstanceFormulaBitForBit) {
  const std::pair<std::size_t, double> shapes[] = {
      {0, 1.0}, {1, 1.0}, {256, 0.9}, {32'768, 0.6}, {65'536, 0.8}};
  for (const auto& [n, alpha] : shapes) {
    const std::vector<double> want = reference_cdf(n, alpha);
    const ZipfSampler z(n, alpha);
    ASSERT_EQ(z.size(), want.size()) << n;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(z.cdf()[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "n=" << n << " alpha=" << alpha << " i=" << i;
    }
  }
}

TEST(Zipf, SamplersShareOneTablePerSizeAndAlphaBits) {
  const ZipfSampler a(1'000, 0.7);
  const ZipfSampler b(1'000, 0.7);
  EXPECT_EQ(a.cdf().data(), b.cdf().data());
  // The key is the bit pattern: the next representable alpha, or another
  // size, gets its own table.
  EXPECT_NE(ZipfSampler(1'000, std::nextafter(0.7, 1.0)).cdf().data(),
            a.cdf().data());
  EXPECT_NE(ZipfSampler(1'001, 0.7).cdf().data(), a.cdf().data());
}

TEST(Zipf, IndexMatchesLowerBoundAtEveryBoundary) {
  // Every table the models build: each app phase's code table and, for
  // zipf-reuse phases, its data table (as the generator sizes them), plus
  // the kernel model's hot-text and slab tables.
  std::vector<std::pair<std::size_t, double>> shapes = {{256, 0.9},
                                                        {65'536, 0.8}};
  for (AppId id : all_apps()) {
    for (const PhaseSpec& p : make_app(id).phases) {
      shapes.emplace_back(p.hot_code_lines, p.code_zipf_alpha);
      if (p.pattern == AccessPattern::ZipfReuse)
        shapes.emplace_back(std::max<std::uint64_t>(1, p.ws_bytes / kLineSize),
                            p.data_zipf_alpha);
    }
  }
  // Edge shapes: one item, two items, a flat CDF, and a skew so steep that
  // the tail terms vanish into the running sum, leaving thousands of equal
  // neighbours at the top of the CDF.
  shapes.insert(shapes.end(), {{1, 1.0}, {2, 1.0}, {1'000, 0.0}, {4'096, 8.0}});
  const std::vector<double> steep = reference_cdf(4'096, 8.0);
  ASSERT_EQ(steep[4'094], steep[4'095]);

  for (const auto& [n, alpha] : shapes) {
    const std::vector<double> cdf = reference_cdf(n, alpha);
    const ZipfSampler z(n, alpha);
    std::vector<double> probes = {0.0, 1.0 - 0x1.0p-53};
    for (double c : cdf) {
      probes.push_back(std::nextafter(c, 0.0));
      probes.push_back(c);
      probes.push_back(std::nextafter(c, 2.0));
    }
    for (double u : probes) {
      ASSERT_EQ(z.index(u), reference_index(cdf, u))
          << "n=" << n << " alpha=" << alpha << " u=" << u;
    }
  }
}

TEST(Zipf, ConcurrentConstructionReproducesSerialSequences) {
  // Shapes no other test uses, so the threads race to build the tables and
  // their guides; every draw then goes through a guide, and a torn one
  // would show up as a sequence that differs from the binary search's.
  const std::pair<std::size_t, double> shapes[] = {
      {4'096, 0.55}, {20'000, 0.65}, {50'000, 0.75}, {777, 1.05}};
  constexpr int kThreads = 8;
  constexpr int kDraws = 2'000;
  // Thread t's draw d uses shape (t + d) % 4: every shape is built by two
  // threads at once and sampled by all eight.
  auto shape = [&](int t, int d) {
    return static_cast<std::size_t>(t + d) % std::size(shapes);
  };

  // The serial reference never touches the shared tables.
  std::vector<std::vector<double>> ref;
  for (const auto& [n, alpha] : shapes) ref.push_back(reference_cdf(n, alpha));
  std::vector<std::vector<std::size_t>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1'000 + t);
    for (int d = 0; d < kDraws; ++d)
      want[t].push_back(reference_sample(ref[shape(t, d)], rng));
  }

  std::vector<std::vector<std::size_t>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      Rng rng(1'000 + t);
      for (int d = 0; d < kDraws; ++d) {
        const auto& [n, alpha] = shapes[shape(t, d)];
        got[t].push_back(ZipfSampler(n, alpha).sample(rng));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want[t]) << t;
}

}  // namespace
}  // namespace mobcache
