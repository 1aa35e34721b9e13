#pragma once
/// \file cache_config.hpp
/// Geometry + policy description for one set-associative cache array.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace mobcache {

/// Replacement policy selector. LRU is the paper's configuration; the rest
/// exist for the E10 ablation.
enum class ReplKind : std::uint8_t { Lru, Fifo, Random, Plru, Srrip };

constexpr std::string_view to_string(ReplKind k) {
  switch (k) {
    case ReplKind::Lru: return "LRU";
    case ReplKind::Fifo: return "FIFO";
    case ReplKind::Random: return "Random";
    case ReplKind::Plru: return "PLRU";
    case ReplKind::Srrip: return "SRRIP";
  }
  return "?";
}

/// Bitmask over ways; bit w set ⇔ way w may be used. Supports up to 64 ways.
using WayMask = std::uint64_t;

constexpr WayMask full_way_mask(std::uint32_t assoc) {
  return assoc >= 64 ? ~0ull : ((1ull << assoc) - 1);
}

/// Contiguous way range [first, first+count) as a mask.
constexpr WayMask way_range_mask(std::uint32_t first, std::uint32_t count) {
  return count == 0 ? 0 : full_way_mask(count) << first;
}

/// Mask with only way `w` set.
constexpr WayMask way_bit(std::uint32_t w) { return 1ull << w; }

/// The `count` lowest-numbered set bits of `from` (fewer if `from` has
/// fewer). Used to carve partition allocations out of a healthy-way mask
/// that may have holes after way-disable repair.
constexpr WayMask lowest_ways(WayMask from, std::uint32_t count) {
  WayMask out = 0;
  for (std::uint32_t w = 0; w < 64 && count > 0; ++w) {
    if ((from & way_bit(w)) != 0) {
      out |= way_bit(w);
      --count;
    }
  }
  return out;
}

/// The `count` highest-numbered set bits of `from` (fewer if `from` has
/// fewer).
constexpr WayMask highest_ways(WayMask from, std::uint32_t count) {
  WayMask out = 0;
  for (std::int32_t w = 63; w >= 0 && count > 0; --w) {
    if ((from & way_bit(static_cast<std::uint32_t>(w))) != 0) {
      out |= way_bit(static_cast<std::uint32_t>(w));
      --count;
    }
  }
  return out;
}

/// One array's geometry and policy. Every array in the model has
/// kLineSize-byte lines (common/types.hpp).
struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 2ull << 20;
  std::uint32_t assoc = 16;
  ReplKind repl = ReplKind::Lru;
  /// XOR-fold the tag bits into the set index (classic conflict-miss
  /// mitigation; E10 ablates its interaction with partitioning).
  bool xor_index = false;

  std::uint32_t num_sets() const {
    return static_cast<std::uint32_t>(size_bytes / (kLineSize * assoc));
  }

  std::uint64_t num_lines() const { return size_bytes / kLineSize; }

  /// Throws std::invalid_argument on inconsistent geometry (non-power-of-two
  /// sets, zero sizes, assoc > 64).
  void validate() const {
    auto pow2 = [](std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; };
    if (assoc == 0 || assoc > 64)
      throw std::invalid_argument(name + ": associativity must be in [1,64]");
    if (size_bytes == 0 || size_bytes % (kLineSize * assoc) != 0)
      throw std::invalid_argument(name +
                                  ": size must be a multiple of line*assoc");
    if (!pow2(num_sets()))
      throw std::invalid_argument(name + ": set count must be a power of two");
    if (repl == ReplKind::Plru && !pow2(assoc))
      throw std::invalid_argument(name + ": PLRU needs power-of-two assoc");
  }
};

}  // namespace mobcache
