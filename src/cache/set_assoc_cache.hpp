#pragma once
/// \file set_assoc_cache.hpp
/// Way-mask-aware set-associative cache array with write-back/write-allocate
/// semantics, per-block owner-mode tracking, and optional finite retention
/// (STT-RAM block expiry).
///
/// This one class backs every L2 organization in the paper reproduction:
///  - the shared baseline uses the full way mask,
///  - the static partitioned design instantiates two arrays,
///  - the dynamic design uses one array with per-mode way masks that the
///    controller rewrites at epoch boundaries,
///  - the STT-RAM designs additionally set a retention period so blocks not
///    rewritten in time expire (or are scrubbed by the RefreshController).
///
/// Storage is structure-of-arrays: the hit probe scans a contiguous per-set
/// tag lane (plus one packed flag byte per block) instead of striding
/// through ~64-byte AoS records, and the cold per-block state (retention
/// deadlines, lifetime cycles, fault bits) lives in separate lanes touched
/// only on the paths that need them. The per-access kernel is additionally
/// specialized at run start: one member-function-pointer dispatch selects a
/// kernel templated on the concrete replacement policy (devirtualizing
/// on_hit/on_fill/choose_victim) and on whether retention, fault hooks and
/// eviction observers are live, so disabled features cost nothing per
/// access. The generic virtual-dispatch kernel is retained as the reference
/// implementation (KernelMode::Reference); the two are bit-identical, which
/// the golden-equivalence suite (tests/test_kernel_equiv.cpp) pins.
/// See docs/PERFORMANCE.md.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/replacement.hpp"
#include "common/types.hpp"

namespace mobcache {

/// Materialized view of one cache block's metadata, assembled from the SoA
/// lanes. Returned by value from block() / passed to for_each_valid_block
/// visitors; mutating it does not touch the array.
struct BlockMeta {
  Addr line = 0;  ///< full line address (tag and index combined)
  bool valid = false;
  bool dirty = false;
  Mode owner = Mode::User;   ///< mode that filled the block
  Cycle fill_cycle = 0;
  Cycle last_access = 0;
  Cycle last_write = 0;          ///< array write: fill, store hit, or refresh
  Cycle retention_deadline = 0;  ///< 0 = non-volatile
  std::uint32_t access_count = 0;
  bool prefetched = false;  ///< filled by a prefetch, not yet demand-hit
  /// Accumulated faulty bits (write failures + transient upsets) awaiting an
  /// ECC verdict on the next read of the block. 0 = pristine.
  std::uint16_t fault_bits = 0;
};

/// Verdict of the ECC check run when a block with fault_bits != 0 is read.
enum class FaultReadOutcome : std::uint8_t {
  Corrected,  ///< ECC repaired the data in place (fault bits cleared)
  Lost,       ///< uncorrectable but detected: the block must be dropped
  Silent,     ///< undetected: corrupted data is consumed as-is
};

/// Seam between the cache array and the fault subsystem (src/fault/). The
/// array owns the block state; the hooks own the randomness and the ECC
/// policy. A null hook pointer — the default — keeps every code path
/// bit-identical to a fault-free build.
class ArrayFaultHooks {
 public:
  virtual ~ArrayFaultHooks() = default;
  /// Per-block retention period sampled at write time (process variation +
  /// thermal noise around the nominal class period).
  virtual Cycle effective_retention(Addr line, Cycle nominal) = 0;
  /// Bits corrupted by one array write at (set, way); 0 = clean write.
  virtual std::uint32_t write_upsets(Addr line, std::uint32_t set,
                                     std::uint32_t way) = 0;
  /// ECC verdict for a read of a block carrying `fault_bits` faulty bits.
  virtual FaultReadOutcome read_check(Addr line, std::uint32_t fault_bits) = 0;
};

/// Per-array counters, split by requester mode where meaningful.
struct CacheStats {
  std::uint64_t accesses[kModeCount] = {0, 0};
  std::uint64_t hits[kModeCount] = {0, 0};
  std::uint64_t store_hits = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;             ///< dirty evictions
  std::uint64_t cross_mode_evictions = 0;   ///< victim owner != requester mode
  std::uint64_t expired_blocks = 0;         ///< retention-expiry invalidations
  std::uint64_t expired_dirty = 0;          ///< ... of which were dirty
  std::uint64_t refreshes = 0;              ///< scrub rewrites
  std::uint64_t prefetch_fills = 0;         ///< lines installed by prefetch
  std::uint64_t useful_prefetches = 0;      ///< prefetched lines demand-hit
  // Fault/ECC counters (all zero unless fault hooks are installed).
  std::uint64_t write_faults = 0;       ///< array writes that left faulty bits
  std::uint64_t transient_upsets = 0;   ///< upsets landed on live blocks
  std::uint64_t ecc_corrections = 0;    ///< reads repaired in place by ECC
  std::uint64_t fault_losses = 0;       ///< uncorrectable blocks dropped
  std::uint64_t fault_lost_dirty = 0;   ///< ... of which held dirty data
  std::uint64_t scrub_repairs = 0;      ///< faulty blocks healed by a scrub
  std::uint64_t silent_faults = 0;      ///< undetected corrupted reads served

  std::uint64_t total_accesses() const { return accesses[0] + accesses[1]; }
  std::uint64_t total_hits() const { return hits[0] + hits[1]; }
  std::uint64_t total_misses() const { return total_accesses() - total_hits(); }
  std::uint64_t misses(Mode m) const {
    return accesses[static_cast<int>(m)] - hits[static_cast<int>(m)];
  }

  double miss_rate() const {
    const auto a = total_accesses();
    return a == 0 ? 0.0 : static_cast<double>(total_misses()) /
                              static_cast<double>(a);
  }
  double miss_rate(Mode m) const {
    const auto a = accesses[static_cast<int>(m)];
    return a == 0 ? 0.0
                  : static_cast<double>(misses(m)) / static_cast<double>(a);
  }
  double kernel_access_fraction() const {
    const auto a = total_accesses();
    return a == 0 ? 0.0 : static_cast<double>(accesses[1]) /
                              static_cast<double>(a);
  }

  void reset() { *this = CacheStats{}; }
};

/// What one access did to the array; the L2 wrappers translate this into
/// energy events and downstream traffic.
struct AccessResult {
  bool hit = false;
  std::uint32_t way = 0;
  bool filled = false;          ///< a block was installed (== miss serviced)
  bool evicted_valid = false;   ///< a live block was displaced for the fill
  bool victim_dirty = false;    ///< displaced block needed a writeback
  Addr victim_line = 0;
  Mode victim_owner = Mode::User;
  std::uint32_t victim_access_count = 0;  ///< touches the victim had seen
  bool target_expired = false;       ///< block was present but past deadline
  bool expired_was_dirty = false;    ///< expired block held dirty data
  bool ecc_corrected = false;        ///< hit needed an in-place ECC repair
  bool fault_lost = false;           ///< block dropped: uncorrectable fault
  bool fault_lost_dirty = false;     ///< ... and its dirty data is gone
};

/// Wear statistics over the physical (set, way) locations of one array —
/// STT-RAM endurance is finite (~1e12 writes/cell), and partitioning
/// concentrates the kernel's write traffic into a small segment
/// (experiment E20).
struct WearSummary {
  std::uint64_t total_writes = 0;  ///< array writes: fills, stores, scrubs
  std::uint32_t max_writes = 0;    ///< hottest location
  double mean_writes = 0.0;
  std::uint32_t p99_writes = 0;
  /// max/mean — 1.0 would be perfectly even wear.
  double imbalance() const {
    return mean_writes <= 0.0 ? 0.0 : max_writes / mean_writes;
  }
};

/// Block-eviction notification for lifetime studies (experiment E5).
struct EvictionEvent {
  Addr line = 0;
  Mode owner = Mode::User;
  Cycle fill_cycle = 0;
  Cycle last_access = 0;
  Cycle evict_cycle = 0;
  bool dirty = false;
  std::uint32_t access_count = 0;
};

/// Which access kernel a SetAssocCache dispatches to.
enum class KernelMode : std::uint8_t {
  Fast,       ///< policy-devirtualized, feature-specialized kernel
  Reference,  ///< generic kernel: virtual replacement calls, all branches
};

class SetAssocCache {
 public:
  explicit SetAssocCache(CacheConfig cfg, std::uint64_t seed = 1);

  const CacheConfig& config() const { return cfg_; }

  /// Probe-and-update. Lookup, victim choice and fill are all restricted to
  /// `allowed` ways. `now` drives recency, lifetimes and retention.
  /// `prefetch` requests fill like misses but are accounted separately
  /// (prefetch_fills) and never perturb the demand hit/miss counters.
  /// `no_alloc` misses count normally but do not install the line (write
  /// bypass: the requester is served straight from DRAM).
  AccessResult access(Addr line, AccessType type, Mode mode, Cycle now,
                      WayMask allowed, bool prefetch = false,
                      bool no_alloc = false) {
    return (this->*kernel_)(line, type, mode, now, allowed, prefetch,
                            no_alloc);
  }

  /// Convenience overload using every way.
  AccessResult access(Addr line, AccessType type, Mode mode, Cycle now) {
    return access(line, type, mode, now, full_way_mask(cfg_.assoc));
  }

  /// Retention period applied to blocks on fill/store/refresh; 0 = infinite
  /// (SRAM / high-retention STT-RAM).
  void set_retention_period(Cycle period) {
    retention_period_ = period;
    select_kernel();
  }
  Cycle retention_period() const { return retention_period_; }

  /// Rewrites a live block in place (scrub), extending its deadline. With
  /// fault hooks installed, the scrub first runs the corrector over any
  /// faulty bits: correctable blocks are healed (scrub_repairs), detected
  /// uncorrectable blocks are dropped instead of rewritten (fault_losses).
  /// Returns false when the block was dropped or absent.
  bool refresh_block(std::uint32_t set, std::uint32_t way, Cycle now);

  /// Fault injection seam (src/fault/). Null (the default) disables every
  /// fault code path and keeps behavior bit-identical to a fault-free run.
  void set_fault_hooks(ArrayFaultHooks* hooks) {
    fault_hooks_ = hooks;
    select_kernel();
  }

  /// Lands `bits` transiently-upset bits on (set, way) if it holds a valid
  /// block (radiation-style upset). Returns true when a block was hit.
  bool corrupt_block(std::uint32_t set, std::uint32_t way, std::uint32_t bits);

  /// Walks the array invalidating blocks whose deadline has passed.
  /// Returns {expired_total, expired_dirty}. Dirty expiries are counted so
  /// the caller can charge the eager writeback the scrub hardware performs.
  std::pair<std::uint64_t, std::uint64_t> expire_sweep(Cycle now);

  /// Invalidates every block in `ways` (across all sets), e.g. when the
  /// dynamic controller power-gates or reassigns ways. Returns the number of
  /// dirty blocks flushed (each one is a writeback the caller must account).
  std::uint64_t invalidate_ways(WayMask ways);

  /// Valid (non-expired as of `now`) blocks within `ways`.
  std::uint64_t occupancy(WayMask ways, Cycle now) const;
  /// Valid + dirty blocks within `ways`.
  std::uint64_t dirty_occupancy(WayMask ways, Cycle now) const;

  /// Visits every valid block: fn(set, way, meta). The BlockMeta argument is
  /// a materialized snapshot of the SoA lanes, valid only for the call.
  void for_each_valid_block(
      const std::function<void(std::uint32_t, std::uint32_t,
                               const BlockMeta&)>& fn) const;

  bool contains(Addr line, Cycle now) const;

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t assoc() const { return cfg_.assoc; }
  /// Line size and set count are validated powers of two, so indexing is
  /// pure shift/mask work — no division on the per-access path.
  std::uint32_t set_index(Addr line) const {
    const Addr n = line >> line_shift_;
    const Addr idx = cfg_.xor_index ? n ^ (n >> sets_shift_) : n;
    return static_cast<std::uint32_t>((idx ^ index_rotation_) &
                                      (num_sets_ - 1));
  }

  /// Wear leveling: re-keys the set mapping (hot lines move to fresh
  /// physical sets) and flushes the array, since every resident block's
  /// location would otherwise be wrong. Returns the number of dirty blocks
  /// flushed (DRAM writebacks the caller must account). See E20.
  std::uint64_t rotate_index(std::uint32_t new_xor_key);
  std::uint32_t index_rotation() const { return index_rotation_; }

  /// Snapshot of one block's metadata, assembled from the lanes.
  BlockMeta block(std::uint32_t set, std::uint32_t way) const;

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Per-location write-wear accounting (always on; one counter per line).
  WearSummary wear_summary() const;
  const std::vector<std::uint32_t>& location_writes() const {
    return wear_;
  }

  /// Observers invoked whenever a valid block leaves the cache
  /// (replacement, way flush or expiry). Each call appends one (multicast —
  /// e.g. a lifetime recorder plus the hierarchy's inclusion
  /// back-invalidation); a null observer is ignored.
  void add_eviction_observer(std::function<void(const EvictionEvent&)> obs) {
    if (obs) observers_.push_back(std::move(obs));
    select_kernel();
  }

  /// Invalidates one line if present (inclusion back-invalidation).
  /// Returns true when a block was dropped; `was_dirty` reports its state.
  bool invalidate_line(Addr line, bool* was_dirty = nullptr);

  /// Kernel dispatch control. The fast kernel is selected by default; the
  /// reference kernel is the generic always-checking implementation kept as
  /// the equivalence baseline (forced process-wide by the
  /// MOBCACHE_REFERENCE_KERNEL=1 environment variable).
  void set_kernel_mode(KernelMode m) {
    kernel_mode_ = m;
    select_kernel();
  }
  KernelMode kernel_mode() const { return kernel_mode_; }
  /// Human-readable name of the currently selected kernel, e.g.
  /// "fast/LRU+retention" or "reference" (for tests and diagnostics).
  std::string kernel_name() const;

  /// Process-wide default for newly constructed arrays. Initialized from
  /// MOBCACHE_REFERENCE_KERNEL on first use; settable for tests.
  static void set_default_kernel_mode(KernelMode m);
  static KernelMode default_kernel_mode();

 private:
  // Packed per-block flag bits (flags_ lane).
  static constexpr std::uint8_t kValidBit = 0x1;
  static constexpr std::uint8_t kDirtyBit = 0x2;
  static constexpr std::uint8_t kKernelBit = 0x4;  ///< owner == Mode::Kernel
  static constexpr std::uint8_t kPrefetchedBit = 0x8;

  /// Tag-lane value of an invalid block. Line addresses are line-aligned,
  /// so all-ones can never match a real line — the hit probe compares tags
  /// alone, with no flags load (the invariant: valid ⇔ tags_[i] != kNoTag
  /// for probe purposes, maintained by invalidate_at and the fill path).
  static constexpr Addr kNoTag = ~Addr{0};

  using AccessFn = AccessResult (SetAssocCache::*)(Addr, AccessType, Mode,
                                                   Cycle, WayMask, bool, bool);

  /// The one access kernel, specialized on the concrete replacement policy
  /// (Repl = ReplacementPolicy keeps virtual dispatch — the reference path)
  /// and on which feature lanes are live. All instantiations run the same
  /// statements over the same state; the template parameters only delete
  /// provably-dead branches. AssocT pins the associativity at compile time
  /// (0 = read it from cfg_ at runtime) so the probe loop fully unrolls;
  /// only the hottest feature-free variants are instantiated per-assoc.
  template <typename Repl, bool HasRetention, bool HasFault, bool HasObs,
            std::uint32_t AssocT = 0>
  AccessResult access_kernel(Addr line, AccessType type, Mode mode, Cycle now,
                             WayMask allowed, bool prefetch, bool no_alloc);

  template <typename Repl>
  AccessFn kernel_for_flags(bool retention, bool fault, bool obs) const;
  void select_kernel();

  std::size_t loc(std::uint32_t set, std::uint32_t way) const {
    return static_cast<std::size_t>(set) * cfg_.assoc + way;
  }
  Mode owner_at(std::size_t i) const {
    return (flags_[i] & kKernelBit) != 0 ? Mode::Kernel : Mode::User;
  }
  bool expired_at(std::size_t i, Cycle now) const {
    return cold_[i].deadline != 0 && now >= cold_[i].deadline;
  }
  void invalidate_at(std::size_t i) {
    flags_[i] &= ~kValidBit;
    tags_[i] = kNoTag;  // keeps the tag-only probe honest
  }

  void notify_eviction(std::size_t i, Cycle now);

  /// Retention period for a block being (re)written now; hooks may shorten
  /// or stretch the nominal class period per block.
  Cycle effective_period(Addr line) const {
    return (fault_hooks_ == nullptr || retention_period_ == 0)
               ? retention_period_
               : fault_hooks_->effective_retention(line, retention_period_);
  }

  /// Runs the write-upset hook for one array write into lane index `i`.
  void apply_write_faults(std::size_t i, std::uint32_t set, std::uint32_t way);

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::uint32_t line_shift_ = 0;  ///< log2(line_size)
  std::uint32_t sets_shift_ = 0;  ///< log2(num_sets)
  std::uint32_t index_rotation_ = 0;
  Cycle retention_period_ = 0;
  /// True once any nonzero retention period was ever configured: blocks may
  /// carry deadlines even after retention is reset to 0, so the
  /// retention-free kernel specialization stays off the table.
  bool retention_ever_ = false;

  /// Per-block bookkeeping that is only touched after the probe resolves.
  /// Packed into one 40-byte record so a hit (last_access / access_count)
  /// or a fill (every field) dirties one or two host cache lines instead
  /// of up to six parallel arrays.
  struct ColdMeta {
    Cycle deadline = 0;  ///< retention deadline; 0 = non-volatile
    Cycle fill_cycle = 0;
    Cycle last_access = 0;
    Cycle last_write = 0;
    std::uint32_t access_count = 0;
    std::uint16_t fault_bits = 0;
  };

  // Structure-of-arrays block state, all indexed by loc(set, way).
  // Hot probe lanes:
  std::vector<Addr> tags_;            ///< line address (valid bit gates use)
  std::vector<std::uint8_t> flags_;   ///< kValidBit | kDirtyBit | ...
  // Everything else, one record per block:
  std::vector<ColdMeta> cold_;

  std::vector<std::uint32_t> wear_;
  std::unique_ptr<ReplacementPolicy> repl_;
  CacheStats stats_;
  std::vector<std::function<void(const EvictionEvent&)>> observers_;
  ArrayFaultHooks* fault_hooks_ = nullptr;  ///< non-owning; null = fault-free
  KernelMode kernel_mode_;
  AccessFn kernel_ = nullptr;
};

}  // namespace mobcache
