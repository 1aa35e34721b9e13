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
/// Sampling is a binary search over the CDF. Used to model skewed reuse
/// inside working sets (hot lines vs. cold lines), the property that makes
/// user-phase streams L1-friendly and kernel streams L1-hostile.
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

  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }
  /// The shared table: cdf()[i] = P(sample() <= i).
  std::span<const double> cdf() const { return cdf_; }

 private:
  std::span<const double> cdf_;
};

}  // namespace mobcache
