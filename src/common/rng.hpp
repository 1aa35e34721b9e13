#pragma once
/// \file rng.hpp
/// Deterministic, fast pseudo-random utilities for workload synthesis.
///
/// All simulation randomness flows through Rng so that every experiment is
/// exactly reproducible from its seed. The generator is xoshiro256**, which
/// is far faster than std::mt19937_64 and has no observable bias at the
/// scales used here.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mobcache {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64,
  /// per the authors' recommendation.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Geometric number of trials until success with success probability p;
  /// returns at least 1. Used for phase lengths and burst sizes.
  std::uint64_t geometric(double p);

  /// Exponentially distributed value with the given mean.
  double exponential(double mean);

  /// Index drawn from the (unnormalized) weight vector.
  std::size_t weighted(const std::vector<double>& weights);

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Zipf(alpha) sampler over {0, ..., n-1}, item 0 most popular.
///
/// Sampling inverts the CDF at one uniform() draw (index() says how). Used
/// to model skewed reuse inside working sets (hot lines vs. cold lines), the
/// property that makes user-phase streams L1-friendly and kernel streams
/// L1-hostile.
///
/// The CDF is shared: every sampler with the same n and the same bit
/// pattern of alpha views one immutable table, built on first use under a
/// process-wide mutex and kept for the life of the process. The kernel
/// model's 65 536-entry slab table costs one std::pow per entry, and every
/// streamed fleet session builds several generators, so per-sampler tables
/// would take about half of a session's CPU. A sampler is a plain value:
/// copying it copies a view, and sample() reads the table without locking.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  /// index(rng.uniform()): one Rng draw per sample.
  std::size_t sample(Rng& rng) const;
  /// The item a draw u >= 0 maps to: the first i with cdf()[i] >= u, or the
  /// last item if there is none — exactly std::lower_bound's index over
  /// cdf(), clamped to size() - 1. Instead of a binary search, the lookup
  /// starts at the guide entry stored with the shared table for u's bucket
  /// floor(u * n), then walks back while cdf[i-1] >= u and forward while
  /// cdf[i] < u. The CDF is non-decreasing, so the walk can stop only where
  /// cdf[i-1] < u <= cdf[i] (or at an end), which is lower_bound's index
  /// wherever it started. The guide entry (lower_bound's index of the
  /// bucket's left edge, b / n) only keeps the walk short, under one step
  /// on average, and cannot move a sample.
  std::size_t index(double u) const;
  std::size_t size() const { return cdf_.size(); }
  /// The shared table: cdf()[i] = P(sample() <= i).
  std::span<const double> cdf() const { return cdf_; }

 private:
  std::span<const double> cdf_;
  std::span<const std::uint32_t> guide_;  ///< one start index per bucket
};

}  // namespace mobcache
