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

#include "core/l2_interface.hpp"
#include "energy/technology.hpp"

namespace mobcache {

struct VictimCacheL2Config {
  CacheConfig cache;            ///< main array (paper baseline: 2 MB 16-way)
  std::uint32_t victim_entries = 64;  ///< fully-associative victim lines
};

class VictimCacheL2 final : public L2Interface {
 public:
  explicit VictimCacheL2(const VictimCacheL2Config& cfg);

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override;
  void writeback(Addr line, Mode owner, Cycle now) override;
  void prefetch(Addr line, Mode mode, Cycle now) override;
  void finalize(Cycle end) override;
  const EnergyBreakdown& energy() const override { return acct_.breakdown(); }
  CacheStats aggregate_stats() const override { return cache_.stats(); }
  std::uint64_t capacity_bytes() const override {
    return cache_.config().size_bytes +
           static_cast<std::uint64_t>(cfg_.victim_entries) * kLineSize;
  }
  std::string describe() const override;
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override {
    cache_.add_eviction_observer(std::move(obs));
  }

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
  void push_victim(const VictimEntry& e);

  VictimCacheL2Config cfg_;
  SetAssocCache cache_;
  TechParams tech_;
  TechParams victim_tech_;
  EnergyAccountant acct_;
  std::deque<VictimEntry> victims_;  ///< front = LRU, back = MRU
  std::uint64_t victim_hits_ = 0;
  std::uint64_t cross_mode_rescues_ = 0;
  bool finalized_ = false;
};

}  // namespace mobcache
