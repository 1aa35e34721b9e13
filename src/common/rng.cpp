#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace mobcache {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// The Zipf(alpha) CDF over n >= 1 items.
std::vector<double> zipf_cdf(std::size_t n, double alpha) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

/// A Zipf CDF and its guide: guide[b] is the first i with
/// cdf[i] >= b / n (n - 1 if none), where ZipfSampler::index starts a draw
/// that falls in bucket b = floor(u * n).
struct ZipfTable {
  std::vector<double> cdf;
  std::vector<std::uint32_t> guide;
};

ZipfTable zipf_table(std::size_t n, double alpha) {
  ZipfTable t{zipf_cdf(n, alpha), std::vector<std::uint32_t>(n)};
  std::size_t i = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(n);
    while (i + 1 < n && t.cdf[i] < edge) ++i;
    t.guide[b] = static_cast<std::uint32_t>(i);
  }
  return t;
}

/// The process-wide zipf_table(n, alpha), keyed by n and the bit pattern of
/// alpha so that only an identical alpha shares a table. A table is built
/// under the mutex and never modified or freed afterwards (the registry is
/// deliberately leaked, so no exit-time destructor can race a late
/// sampler); a map node's vectors never move, so callers keep views and
/// read them without locking. The registry is bounded by the distinct
/// (n, alpha) pairs of the app and kernel models.
const ZipfTable& shared_zipf_table(std::size_t n, double alpha) {
  using Key = std::pair<std::size_t, std::uint64_t>;
  static std::mutex mu;
  static auto* tables = new std::map<Key, ZipfTable>();
  const Key key{n, std::bit_cast<std::uint64_t>(alpha)};
  const std::lock_guard<std::mutex> lock(mu);
  auto it = tables->find(key);
  if (it == tables->end())
    it = tables->emplace(key, zipf_table(n, alpha)).first;
  return it->second;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // A fully-zero state would be absorbing; splitmix64 never yields four
  // zeros from distinct steps, but keep the guarantee explicit.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's multiply-shift rejection method: unbiased and division-free in
  // the common case.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + below(hi - lo + 1);
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::geometric(double p) {
  p = std::clamp(p, 1e-9, 1.0 - 1e-12);
  const double u = std::max(uniform(), 1e-300);
  const double trials = std::floor(std::log(u) / std::log1p(-p)) + 1.0;
  return trials < 1.0 ? 1 : static_cast<std::uint64_t>(trials);
}

double Rng::exponential(double mean) {
  const double u = std::max(uniform(), 1e-300);
  return -mean * std::log(u);
}

std::size_t Rng::weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick <= 0.0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) {
  const ZipfTable& t = shared_zipf_table(n == 0 ? 1 : n, alpha);
  cdf_ = t.cdf;
  guide_ = t.guide;
}

std::size_t ZipfSampler::sample(Rng& rng) const { return index(rng.uniform()); }

std::size_t ZipfSampler::index(double u) const {
  const std::size_t n = cdf_.size();
  const auto bucket = static_cast<std::size_t>(u * static_cast<double>(n));
  std::size_t i = guide_[std::min(bucket, n - 1)];
  while (i > 0 && cdf_[i - 1] >= u) --i;
  while (i + 1 < n && cdf_[i] < u) ++i;
  return i;
}

}  // namespace mobcache
