#pragma once
/// \file victim_cache_l2.hpp
/// Shared L2 + fully-associative victim buffer (additional baseline).
///
/// A classic alternative answer to cache interference: instead of
/// partitioning, keep a small fully-associative victim cache next to the
/// L2 that catches recently evicted blocks, so a block bounced out by the
/// other mode gets a second chance. Comparing it against the paper's
/// designs quantifies why partitioning wins: the victim buffer recovers
/// *some* interference victims but does nothing about leakage — the actual
/// energy problem — and its capacity is trivial against kernel streaming.

#include <deque>

#include "core/l2_segment.hpp"

namespace mobcache {

struct VictimCacheL2Config {
  CacheConfig cache;            ///< main array (paper baseline: 2 MB 16-way)
  std::uint32_t victim_entries = 64;  ///< fully-associative victim lines
};

/// The main array is one SRAM segment; the victim buffer charges its
/// energy into the segment's accountant.
class VictimCacheL2 final : public OneSegmentL2 {
 public:
  explicit VictimCacheL2(const VictimCacheL2Config& cfg);

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override;
  void writeback(Addr line, Mode owner, Cycle now) override;
  void prefetch(Addr line, Mode mode, Cycle now) override {
    seg_.prefetch(line, mode, now, full_way_mask(seg_.array().assoc()),
                  seg_.tech(), telemetry_);
  }
  void finalize(Cycle end) override;
  std::uint64_t capacity_bytes() const override {
    return seg_.capacity_bytes() +
           static_cast<std::uint64_t>(cfg_.victim_entries) * kLineSize;
  }
  double avg_enabled_bytes() const override {
    return static_cast<double>(capacity_bytes());
  }
  std::string describe() const override;

  /// Hits served out of the victim buffer (the interference it recovered).
  std::uint64_t victim_hits() const { return victim_hits_; }
  /// ... of which the victim had been evicted by the other mode.
  std::uint64_t cross_mode_rescues() const { return cross_mode_rescues_; }

 private:
  struct VictimEntry {
    Addr line = 0;
    Mode owner = Mode::User;
    bool dirty = false;
    bool cross_mode_eviction = false;
  };

  /// Removes and returns the entry for `line` if buffered.
  bool pop_victim(Addr line, VictimEntry& out);
  /// Buffers the block `r` displaced for `requester`'s fill.
  void push_victim(const AccessResult& r, Mode requester);

  VictimCacheL2Config cfg_;
  TechParams victim_tech_;
  std::deque<VictimEntry> victims_;  ///< front = LRU, back = MRU
  std::uint64_t victim_hits_ = 0;
  std::uint64_t cross_mode_rescues_ = 0;
};

}  // namespace mobcache
