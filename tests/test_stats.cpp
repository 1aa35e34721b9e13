#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mobcache {
namespace {

/// Deterministic wide-range sample set (spans several octaves, includes
/// repeats and zeros) used by the merge property tests below.
std::vector<double> property_samples(std::size_t n) {
  std::vector<double> v;
  v.reserve(n);
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (i % 97 == 0) {
      v.push_back(0.0);
    } else {
      // Magnitudes from ~1e-3 to ~1e6.
      const double mant = 1.0 + static_cast<double>(x % 1000) / 1000.0;
      const int exp = static_cast<int>(x >> 60) * 2 - 10;
      v.push_back(std::ldexp(mant, exp));
    }
  }
  return v;
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownSequence) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic sequence: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleValueHasZeroVariance) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStat, MergeMatchesSinglePass) {
  // Split one stream across two accumulators; the merge must agree with a
  // single accumulator that saw everything (parallel Welford).
  RunningStat all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double v = 0.37 * i * i - 5.0 * i + 2.25;
    all.add(v);
    (i % 3 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat filled, empty;
  filled.add(1.0);
  filled.add(3.0);

  RunningStat lhs = filled;
  lhs.merge(empty);  // no-op
  EXPECT_EQ(lhs.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs.mean(), 2.0);

  RunningStat rhs;
  rhs.merge(filled);  // adopt wholesale
  EXPECT_EQ(rhs.count(), 2u);
  EXPECT_DOUBLE_EQ(rhs.mean(), 2.0);
  EXPECT_DOUBLE_EQ(rhs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rhs.max(), 3.0);

  RunningStat e1, e2;
  e1.merge(e2);
  EXPECT_EQ(e1.count(), 0u);
}

TEST(Log2Histogram, MergeAddsBuckets) {
  Log2Histogram a, b, all;
  for (std::uint64_t v : {0ull, 1ull, 5ull, 100ull}) {
    a.add(v);
    all.add(v);
  }
  for (std::uint64_t v : {3ull, 100000ull}) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);  // b reaches higher buckets than a: forces a resize
  EXPECT_EQ(a.total(), all.total());
  EXPECT_EQ(a.buckets(), all.buckets());

  Log2Histogram empty;
  all.merge(empty);
  EXPECT_EQ(all.total(), 6u);
  empty.merge(all);
  EXPECT_EQ(empty.buckets(), all.buckets());
}

TEST(Log2Histogram, BucketPlacement) {
  Log2Histogram h;
  h.add(0);   // bucket 0
  h.add(1);   // bucket 0
  h.add(2);   // bucket 1
  h.add(3);   // bucket 1
  h.add(4);   // bucket 2
  h.add(7);   // bucket 2
  h.add(8);   // bucket 3
  ASSERT_GE(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Log2Histogram, FractionBelow) {
  Log2Histogram h;
  for (int i = 0; i < 10; ++i) h.add(1);    // bucket 0, values < 2
  for (int i = 0; i < 10; ++i) h.add(100);  // bucket 6, [64,128)
  EXPECT_DOUBLE_EQ(h.fraction_below(2), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(64), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(128), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(1u << 20), 1.0);
  EXPECT_EQ(h.fraction_below(0), 0.0);
}

TEST(Log2Histogram, QuantileUpperBound) {
  Log2Histogram h;
  for (int i = 0; i < 99; ++i) h.add(3);
  h.add(1000);
  // Median lands in the [2,4) bucket whose upper bound is 3.
  EXPECT_EQ(h.quantile_upper_bound(0.5), 3u);
  // The extreme tail reaches the bucket containing 1000 ([512,1024)) but the
  // bound clamps to the largest sample actually recorded, not 1023.
  EXPECT_EQ(h.quantile_upper_bound(1.0), 1000u);
  EXPECT_EQ(h.max_value(), 1000u);
}

TEST(Log2Histogram, QuantileBoundariesClampToObservedSamples) {
  // Single sample: every quantile names that sample, not a bucket sentinel.
  Log2Histogram single;
  single.add(1000);
  EXPECT_EQ(single.quantile_upper_bound(0.0), 1000u);
  EXPECT_EQ(single.quantile_upper_bound(0.5), 1000u);
  EXPECT_EQ(single.quantile_upper_bound(1.0), 1000u);

  // q=0 resolves to the first occupied bucket (clamped), never bucket 0's
  // bound when bucket 0 is empty.
  Log2Histogram h;
  h.add(5);
  h.add(1000);
  EXPECT_EQ(h.quantile_upper_bound(0.0), 5u);
  EXPECT_EQ(h.quantile_upper_bound(1.0), 1000u);
}

TEST(Log2Histogram, MergeCarriesMaxForQuantileClamp) {
  Log2Histogram a, b;
  for (int i = 0; i < 10; ++i) a.add(3);
  b.add(700);
  a.merge(b);
  EXPECT_EQ(a.max_value(), 700u);
  EXPECT_EQ(a.quantile_upper_bound(1.0), 700u);

  // Merge direction must not matter, and merging an empty histogram must
  // not disturb the tracked max.
  Log2Histogram c, empty;
  c.add(700);
  for (int i = 0; i < 10; ++i) c.add(3);
  c.merge(empty);
  EXPECT_EQ(c.quantile_upper_bound(1.0), a.quantile_upper_bound(1.0));
}

TEST(Log2Histogram, EmptyQuantileIsZero) {
  Log2Histogram h;
  EXPECT_EQ(h.quantile_upper_bound(0.5), 0u);
  EXPECT_EQ(h.fraction_below(100), 0.0);
}

// --- Merge property suite: the fleet accumulator contract ------------------
// (docs/SWEEP_ENGINE.md: merged statistics must not depend on how samples
// were sharded or in which order shards merged.)

TEST(RunningStat, MergeIsCommutativeAndAssociative) {
  const std::vector<double> samples = property_samples(600);
  RunningStat a, b, c;
  for (std::size_t i = 0; i < samples.size(); ++i)
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(samples[i]);

  RunningStat ab = a;
  ab.merge(b);
  RunningStat ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_NEAR(ab.mean(), ba.mean(), 1e-9 * std::abs(ab.mean()) + 1e-12);
  EXPECT_NEAR(ab.variance(), ba.variance(), 1e-6 * ab.variance() + 1e-9);
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());

  RunningStat ab_c = ab;
  ab_c.merge(c);
  RunningStat bc = b;
  bc.merge(c);
  RunningStat a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.count(), a_bc.count());
  EXPECT_NEAR(ab_c.mean(), a_bc.mean(),
              1e-9 * std::abs(ab_c.mean()) + 1e-12);
  EXPECT_NEAR(ab_c.variance(), a_bc.variance(),
              1e-6 * ab_c.variance() + 1e-9);
  EXPECT_EQ(ab_c.min(), a_bc.min());
  EXPECT_EQ(ab_c.max(), a_bc.max());
}

TEST(Log2Histogram, MergeIsCommutativeAndAssociativeExactly) {
  Log2Histogram a, b, c;
  std::uint64_t x = 12345;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(x >> (x % 50));
  }
  Log2Histogram ab = a;
  ab.merge(b);
  Log2Histogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.buckets(), ba.buckets());
  EXPECT_EQ(ab.total(), ba.total());

  Log2Histogram ab_c = ab;
  ab_c.merge(c);
  Log2Histogram bc = b;
  bc.merge(c);
  Log2Histogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.buckets(), a_bc.buckets());
  EXPECT_EQ(ab_c.total(), a_bc.total());
  // Integer counts ⇒ identical quantiles however the merge happened.
  for (const double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_EQ(ab_c.quantile_upper_bound(q), a_bc.quantile_upper_bound(q));
}

TEST(QuantileSketch, EmptyAndSingle) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.quantile(0.0), 42.0);
  EXPECT_EQ(s.quantile(0.5), 42.0);
  EXPECT_EQ(s.quantile(1.0), 42.0);
}

TEST(QuantileSketch, NonPositiveValuesLandInZeroBucket) {
  QuantileSketch s;
  s.add(0.0);
  s.add(-3.0);
  s.add(8.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 8.0);
  EXPECT_EQ(s.quantile(0.0), 0.0);
  EXPECT_EQ(s.quantile(1.0), 8.0);
}

TEST(QuantileSketch, BoundaryQuantilesAreExactMinMax) {
  // Two samples one octave apart: midpoint interpolation inside the first
  // sub-bucket would report q=0 above the smallest recorded sample.
  QuantileSketch s;
  s.add(4.0);
  s.add(5.0);
  EXPECT_EQ(s.quantile(0.0), 4.0);
  EXPECT_EQ(s.quantile(1.0), 5.0);

  // Merged shards: the boundaries stay the exact global extrema.
  QuantileSketch a, b;
  a.add(7.0);
  a.add(9.0);
  b.add(2.5);
  b.add(1e6);
  a.merge(b);
  EXPECT_EQ(a.quantile(0.0), 2.5);
  EXPECT_EQ(a.quantile(1.0), 1e6);
}

TEST(QuantileSketch, QuantilesWithinRelativeErrorBound) {
  std::vector<double> samples = property_samples(20'000);
  QuantileSketch s;
  for (double v : samples) s.add(v);
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double exact =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    const double got = s.quantile(q);
    // 128 sub-buckets per octave ⇒ ≤ ~0.8% relative bucket width; allow 2%
    // for rank interpolation at bucket edges.
    EXPECT_NEAR(got, exact, 0.02 * exact + 1e-12) << "q=" << q;
  }
  EXPECT_EQ(s.quantile(0.0), samples.front());
  EXPECT_EQ(s.quantile(1.0), samples.back());
}

TEST(QuantileSketch, MergeIsExactlyCommutativeAndAssociative) {
  const std::vector<double> samples = property_samples(3'000);
  QuantileSketch a, b, c;
  for (std::size_t i = 0; i < samples.size(); ++i)
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(samples[i]);

  QuantileSketch ab = a;
  ab.merge(b);
  QuantileSketch ba = b;
  ba.merge(a);
  QuantileSketch ab_c = ab;
  ab_c.merge(c);
  QuantileSketch bc = b;
  bc.merge(c);
  QuantileSketch a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab_c.count(), a_bc.count());
  for (const double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(ab.quantile(q), ba.quantile(q)) << "q=" << q;
    EXPECT_EQ(ab_c.quantile(q), a_bc.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(ab_c.min(), a_bc.min());
  EXPECT_EQ(ab_c.max(), a_bc.max());
}

TEST(QuantileSketch, MergedQuantilesDeterministicAcrossShardCounts) {
  const std::vector<double> samples = property_samples(10'000);
  QuantileSketch reference;
  for (double v : samples) reference.add(v);

  for (const std::size_t shards : {2u, 3u, 7u, 16u, 64u}) {
    std::vector<QuantileSketch> parts(shards);
    // Contiguous ranges, like the fleet sampler's session shards.
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t lo = samples.size() * s / shards;
      const std::size_t hi = samples.size() * (s + 1) / shards;
      for (std::size_t i = lo; i < hi; ++i) parts[s].add(samples[i]);
    }
    QuantileSketch merged;
    for (const QuantileSketch& p : parts) merged.merge(p);
    EXPECT_EQ(merged.count(), reference.count()) << shards << " shards";
    for (const double q : {0.0, 0.05, 0.5, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(merged.quantile(q), reference.quantile(q))
          << shards << " shards, q=" << q;
    }
  }
}

TEST(Geomean, KnownValues) {
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.1234), "12.3%");
  EXPECT_EQ(format_percent(0.1234, 2), "12.34%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2 KB");
  EXPECT_EQ(format_bytes(2ull << 20), "2 MB");
  EXPECT_EQ(format_bytes(1536ull << 10), "1536 KB");
}

}  // namespace
}  // namespace mobcache
