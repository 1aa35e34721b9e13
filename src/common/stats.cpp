#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace mobcache {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += o.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  n_ += o.n_;
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void Log2Histogram::add(std::uint64_t value) {
  const std::size_t bucket =
      value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value) - 1);
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  max_value_ = std::max(max_value_, value);
  min_value_ = total_ == 0 ? value : std::min(min_value_, value);
  ++total_;
}

void Log2Histogram::merge(const Log2Histogram& o) {
  if (o.buckets_.size() > buckets_.size()) buckets_.resize(o.buckets_.size(), 0);
  for (std::size_t b = 0; b < o.buckets_.size(); ++b)
    buckets_[b] += o.buckets_[b];
  if (o.total_ > 0) {
    max_value_ = std::max(max_value_, o.max_value_);
    min_value_ = total_ == 0 ? o.min_value_ : std::min(min_value_, o.min_value_);
  }
  total_ += o.total_;
}

std::uint64_t Log2Histogram::quantile_upper_bound(double q) const {
  if (total_ == 0) return 0;
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
  // q=0 (or any q naming the rank-1 sample) is exactly the smallest sample
  // recorded — never bucket 0's bound, never the first bucket's sentinel.
  if (target <= 1) return min_value_;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= target)
      return std::min<std::uint64_t>((2ull << b) - 1, max_value_);
  }
  return max_value_;
}

double Log2Histogram::fraction_below(std::uint64_t threshold) const {
  if (total_ == 0 || threshold == 0) return 0.0;
  double count = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t lo = b == 0 ? 0 : (1ull << b);
    const std::uint64_t hi = 2ull << b;  // exclusive
    if (hi <= threshold) {
      count += static_cast<double>(buckets_[b]);
    } else if (lo < threshold) {
      const double share = static_cast<double>(threshold - lo) /
                           static_cast<double>(hi - lo);
      count += share * static_cast<double>(buckets_[b]);
    }
  }
  return count / static_cast<double>(total_);
}

long QuantileSketch::index_of(double v) {
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // mant in [0.5, 1)
  long sub = static_cast<long>((mant - 0.5) * (2 * kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // mant rounding guard
  return static_cast<long>(exp) * kSubBuckets + sub;
}

double QuantileSketch::lower_bound_of(long index) {
  // Floor division so negative exponents (values < 0.5) map correctly.
  long exp = index / kSubBuckets;
  long sub = index % kSubBuckets;
  if (sub < 0) {
    sub += kSubBuckets;
    --exp;
  }
  return std::ldexp(0.5 + static_cast<double>(sub) * 0.5 / kSubBuckets,
                    static_cast<int>(exp));
}

double QuantileSketch::width_of(long index) {
  long exp = index / kSubBuckets;
  if (index % kSubBuckets < 0) --exp;
  return std::ldexp(0.5 / kSubBuckets, static_cast<int>(exp));
}

void QuantileSketch::ensure_range(long lo, long hi) {
  // Grow buckets_ to cover global indices [lo, hi] inclusive.
  if (buckets_.empty()) {
    base_index_ = lo;
    buckets_.assign(static_cast<std::size_t>(hi - lo + 1), 0);
    return;
  }
  if (lo < base_index_) {
    const std::size_t grow = static_cast<std::size_t>(base_index_ - lo);
    buckets_.insert(buckets_.begin(), grow, 0);
    base_index_ = lo;
  }
  const long top = base_index_ + static_cast<long>(buckets_.size()) - 1;
  if (hi > top) {
    buckets_.resize(buckets_.size() + static_cast<std::size_t>(hi - top), 0);
  }
}

void QuantileSketch::add(double v) {
  const bool positive = v > 0.0;  // false for NaN too
  const double clamped = positive ? v : 0.0;
  if (count_ == 0) {
    min_ = max_ = clamped;
  } else {
    min_ = std::min(min_, clamped);
    max_ = std::max(max_, clamped);
  }
  ++count_;
  if (!positive) {
    ++zero_count_;
    return;
  }
  const long idx = index_of(v);
  ensure_range(idx, idx);
  ++buckets_[static_cast<std::size_t>(idx - base_index_)];
}

void QuantileSketch::merge(const QuantileSketch& o) {
  if (o.count_ == 0) return;
  if (count_ == 0) {
    *this = o;
    return;
  }
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  count_ += o.count_;
  zero_count_ += o.zero_count_;
  if (!o.buckets_.empty()) {
    const long lo = o.base_index_;
    const long hi = o.base_index_ + static_cast<long>(o.buckets_.size()) - 1;
    ensure_range(lo, hi);
    for (std::size_t b = 0; b < o.buckets_.size(); ++b) {
      buckets_[static_cast<std::size_t>(lo - base_index_) + b] +=
          o.buckets_[b];
    }
  }
}

double QuantileSketch::min() const { return count_ ? min_ : 0.0; }
double QuantileSketch::max() const { return count_ ? max_ : 0.0; }

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Boundaries are exact: interpolation inside the straddling sub-bucket
  // could otherwise report a midpoint above the smallest (or clamp-mask the
  // largest) recorded sample.
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_ - 1);
  double cum = static_cast<double>(zero_count_);
  if (target < cum) return std::clamp(0.0, min_, max_);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const double c = static_cast<double>(buckets_[b]);
    if (c == 0.0) continue;
    if (target < cum + c) {
      const long idx = base_index_ + static_cast<long>(b);
      const double frac = (target - cum + 0.5) / c;
      const double v = lower_bound_of(idx) + width_of(idx) * frac;
      return std::clamp(v, min_, max_);
    }
    cum += c;
  }
  return max_;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-300));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string format_percent(double fraction, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string format_bytes(std::uint64_t bytes) {
  char buf[48];
  if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0) {
    std::snprintf(buf, sizeof buf, "%llu MB",
                  static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= (1ull << 10)) {
    // Non-exact sizes (e.g. time-averaged enabled capacity) round to KB.
    std::snprintf(buf, sizeof buf, "%llu KB",
                  static_cast<unsigned long long>((bytes + 512) >> 10));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace mobcache
