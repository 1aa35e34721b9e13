#pragma once
/// \file hierarchy.hpp
/// Two-level memory hierarchy: split L1I/L1D (SRAM, identical across all
/// compared designs) in front of a pluggable L2 organization.

#include <memory>

#include "cache/prefetcher.hpp"
#include "cache/set_assoc_cache.hpp"
#include "core/l2_interface.hpp"
#include "energy/technology.hpp"
#include "trace/trace.hpp"

namespace mobcache {

/// L1 hit latency in cycles: pipelined, so charged only on the L2 path.
inline constexpr Cycle kL1HitLatency = 1;

struct HierarchyConfig {
  CacheConfig l1i{.name = "L1I",
                  .size_bytes = 32ull << 10,
                  .assoc = 2,
                  .repl = ReplKind::Lru};
  CacheConfig l1d{.name = "L1D",
                  .size_bytes = 32ull << 10,
                  .assoc = 4,
                  .repl = ReplKind::Lru};
  /// L2-side stream prefetcher (off by default; experiment E12).
  bool prefetch = false;
  /// Inclusive L2: an L2 eviction back-invalidates any L1 copy (the
  /// coherence-friendly policy; costs extra L1 misses). Default:
  /// non-inclusive, as in the paper's platform. Ablated in E10.
  bool inclusive_l2 = false;
};

class MemoryHierarchy {
 public:
  /// Non-owning: `l2` must outlive the hierarchy (lets callers inspect the
  /// design after the run — allocation history, victim-hit counters, ...).
  MemoryHierarchy(const HierarchyConfig& cfg, L2Interface& l2);

  /// Runs one reference at time `now`; returns the stall cycles it adds on
  /// top of the core's base CPI (0 on L1 hits and for posted stores).
  Cycle access(const Access& a, Cycle now);

  /// Must be called once after the last access.
  void finalize(Cycle end);

  const CacheStats& l1i_stats() const { return l1i_.stats(); }
  const CacheStats& l1d_stats() const { return l1d_.stats(); }
  L2Interface& l2() { return l2_; }
  const L2Interface& l2() const { return l2_; }

  /// Dynamic + leakage energy of the two L1s (identical across schemes,
  /// reported for completeness).
  double l1_energy_nj() const { return l1_energy_nj_; }

  /// Prefetch lines issued to the L2 so far.
  std::uint64_t prefetches_issued() const { return prefetcher_.issued(); }

  /// Stall-cycle decomposition (the CPI stack above base CPI).
  Cycle stall_l2_hit_cycles() const { return stall_l2_hit_; }
  Cycle stall_l2_miss_cycles() const { return stall_l2_miss_; }

  /// L1 lines dropped by inclusion back-invalidation (0 when
  /// non-inclusive).
  std::uint64_t back_invalidations() const { return back_invalidations_; }

 private:
  HierarchyConfig cfg_;
  SetAssocCache l1i_;
  SetAssocCache l1d_;
  TechParams l1_tech_;
  StridePrefetcher prefetcher_;
  L2Interface& l2_;
  double l1_energy_nj_ = 0.0;
  Cycle stall_l2_hit_ = 0;
  Cycle stall_l2_miss_ = 0;
  std::uint64_t back_invalidations_ = 0;
  bool finalized_ = false;
};

}  // namespace mobcache
