#pragma once
/// \file shadow_monitor.hpp
/// UMON-style sampled shadow-tag utility monitor (Qureshi & Patt, UCP).
///
/// The dynamic partition controller needs, per mode, the marginal utility of
/// granting the segment 1..A ways. A shadow tag directory with a full-depth
/// LRU stack over *sampled* sets records, for every access, at which stack
/// depth it would have hit. hits_at_depth[d] summed over d < W is then the
/// number of hits a W-way allocation would have captured.

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mobcache {

/// The sampling the way-gated L2 designs (DP, multicore) monitor at: shadow
/// tags on 1 in 16 sets.
inline constexpr std::uint32_t kMonitorSampleShift = 4;

class ShadowTagMonitor {
 public:
  /// Monitors 1-in-2^sample_shift sets of a cache with `num_sets` sets;
  /// stacks are `depth` entries deep (== max ways the segment could get).
  ShadowTagMonitor(std::uint32_t num_sets, std::uint32_t sample_shift,
                   std::uint32_t depth);

  /// Records the access if its set is sampled.
  void access(Addr line, std::uint32_t set_index);

  /// Hits this epoch that an allocation of `ways` ways would have served
  /// (scaled up by the sampling factor).
  std::uint64_t hits_with_ways(std::uint32_t ways) const;

  /// Accesses observed this epoch (scaled up by the sampling factor).
  std::uint64_t observed_accesses() const {
    return accesses_ * (1ull << sample_shift_);
  }

  std::uint32_t depth() const { return depth_; }

  /// Clears the per-epoch counters but keeps the stacks warm, so the next
  /// epoch's measurements are not polluted by cold-start misses.
  void new_epoch();

 private:
  bool sampled(std::uint32_t set_index) const {
    return (set_index & ((1u << sample_shift_) - 1)) == 0;
  }

  std::uint32_t sample_shift_;
  std::uint32_t depth_;
  std::uint32_t sampled_sets_;
  /// stacks_[s] is an MRU-first vector of line addresses, <= depth_ long.
  std::vector<std::vector<Addr>> stacks_;
  std::vector<std::uint64_t> hits_at_depth_;
  std::uint64_t accesses_ = 0;
};

}  // namespace mobcache
