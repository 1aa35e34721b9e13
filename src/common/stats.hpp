#pragma once
/// \file stats.hpp
/// Lightweight statistics helpers used by monitors, experiments and reports.

#include <cstdint>
#include <string>
#include <vector>

namespace mobcache {

/// Online mean / variance / extrema accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  /// Combines another accumulator into this one (parallel Welford / Chan et
  /// al.), as if every sample of `o` had been add()ed here. Used for
  /// cross-workload metric aggregation.
  void merge(const RunningStat& o);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Power-of-two bucketed histogram for wide-ranging positive quantities
/// (block lifetimes, inter-access gaps). Bucket b counts values in
/// [2^b, 2^(b+1)); values of 0 land in bucket 0.
class Log2Histogram {
 public:
  void add(std::uint64_t value);

  /// Adds another histogram's buckets into this one (cross-workload
  /// aggregation; buckets align because both are powers of two).
  void merge(const Log2Histogram& o);

  std::uint64_t total() const { return total_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Largest sample ever add()ed (or merged in); 0 when empty.
  std::uint64_t max_value() const { return total_ ? max_value_ : 0; }

  /// Smallest sample ever add()ed (or merged in); 0 when empty.
  std::uint64_t min_value() const { return total_ ? min_value_ : 0; }

  /// Smallest value v such that at least `q` (0..1) of samples are <= upper
  /// bound of v's bucket. Returns the bucket upper bound clamped to the
  /// maximum observed sample, so q=1 (or any q landing in the top occupied
  /// bucket) never reports a value above anything recorded; q=0 (or any q
  /// naming the rank-1 sample) is exactly the minimum observed sample.
  /// 0 when empty.
  std::uint64_t quantile_upper_bound(double q) const;

  /// Fraction of samples whose value is strictly below `threshold`
  /// (resolved at bucket granularity, counting whole buckets whose upper
  /// bound is <= threshold plus a linear share of the straddling bucket).
  double fraction_below(std::uint64_t threshold) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t max_value_ = 0;
  std::uint64_t min_value_ = 0;
};

/// Deterministic, mergeable quantile sketch for non-negative doubles
/// (HdrHistogram-style): each power-of-two octave is split into
/// 2^kSubBucketBits linear sub-buckets, bounding relative quantile error to
/// ~1/2^kSubBucketBits while the footprint stays a few KB for any
/// realistically clustered metric. All state is integer counts plus exact
/// min/max, so merge() is associative, commutative, and independent of how
/// samples were sharded — the property the fleet accumulator's
/// "identical results for every --jobs value" contract rests on
/// (tests/test_stats.cpp pins it).
class QuantileSketch {
 public:
  /// Adds one sample. Values <= 0 (and NaN) land in a dedicated zero
  /// bucket; the sketch is meant for magnitudes (energy, CPI, latency).
  void add(double v);

  /// Adds another sketch's counts into this one, exactly.
  void merge(const QuantileSketch& o);

  std::uint64_t count() const { return count_; }
  double min() const;
  double max() const;

  /// Quantile q in [0,1] with midpoint interpolation inside the straddling
  /// sub-bucket, clamped to the exact [min, max]; q<=0 and q>=1 return the
  /// exact min / max observed sample, so the boundaries never report a value
  /// that was not recorded. Deterministic pure function of the merged
  /// counts; 0 when empty.
  double quantile(double q) const;

 private:
  /// Sub-bucket resolution per octave: 128 buckets → ≤0.8% relative error.
  static constexpr int kSubBucketBits = 7;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  static long index_of(double v);
  static double lower_bound_of(long index);
  static double width_of(long index);
  void ensure_range(long lo, long hi);

  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  long base_index_ = 0;                  ///< global index of buckets_[0]
  std::vector<std::uint64_t> buckets_;   ///< contiguous, grown on demand
};

/// Geometric mean of strictly positive values; 0 if empty.
double geomean(const std::vector<double>& values);

/// "12.3%"-style formatting helpers used across reports.
std::string format_percent(double fraction, int decimals = 1);
/// Human-readable byte size ("512 KB", "2 MB").
std::string format_bytes(std::uint64_t bytes);

}  // namespace mobcache
