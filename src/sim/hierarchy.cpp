#include "sim/hierarchy.hpp"

namespace mobcache {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& cfg, L2Interface& l2)
    : cfg_(cfg),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d),
      l1_tech_(make_sram(cfg.l1i.size_bytes + cfg.l1d.size_bytes)),
      prefetcher_(cfg.prefetch),
      l2_(l2) {
  if (cfg_.inclusive_l2) {
    // Inclusion: whenever the L2 drops a line, any L1 copy must go too.
    // Dirty L1 data superseding the L2 victim rides the victim's own DRAM
    // writeback (charged by the L2), so only the invalidation is modeled.
    l2_.add_eviction_observer([this](const EvictionEvent& e) {
      bool dirty = false;
      if (l1i_.invalidate_line(e.line, &dirty)) ++back_invalidations_;
      if (l1d_.invalidate_line(e.line, &dirty)) ++back_invalidations_;
    });
  }
}

Cycle MemoryHierarchy::access(const Access& a, Cycle now) {
  SetAssocCache& l1 = a.is_ifetch() ? l1i_ : l1d_;
  const Addr line = line_addr(a.addr);

  const AccessResult r = l1.access(line, a.type, a.mode, now);
  if (r.hit) {
    l1_energy_nj_ += a.is_write() ? l1_tech_.write_energy_nj
                                  : l1_tech_.read_energy_nj;
    return 0;  // L1 hits are pipelined
  }

  // L1 miss: probe + fill are both array operations.
  l1_energy_nj_ += l1_tech_.read_energy_nj + l1_tech_.write_energy_nj;

  // Demand-fetch the line from L2. Even store misses fetch first
  // (write-allocate); the fill above already marked the line dirty for
  // stores via a.type.
  const L2Result l2r = l2_.access(line, AccessType::Read, a.mode, now);

  // Train the stream prefetcher on L2 demand misses and issue its
  // candidates off the critical path.
  if (!l2r.hit) {
    for (Addr p : prefetcher_.observe_miss(line, a.mode)) {
      l2_.prefetch(p, a.mode, now);
    }
  }

  // Cast out the displaced dirty L1 line, attributed to its producer mode.
  if (r.evicted_valid && r.victim_dirty) {
    l2_.writeback(r.victim_line, r.victim_owner, now);
  }

  // Loads and fetches stall the core; stores retire through the write
  // buffer.
  if (a.is_write()) return 0;
  const Cycle stall = kL1HitLatency + l2r.latency;
  (l2r.hit ? stall_l2_hit_ : stall_l2_miss_) += stall;
  return stall;
}

void MemoryHierarchy::finalize(Cycle end) {
  if (finalized_) return;
  finalized_ = true;
  l2_.finalize(end);
  l1_energy_nj_ += l1_tech_.leakage_nj(end);
}

}  // namespace mobcache
