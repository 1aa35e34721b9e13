#pragma once
/// \file l2_segment.hpp
/// One L2 array with everything that prices and maintains it: the segment
/// core the paper's designs are built from.
///
/// The three proposals share one mechanism. The shared baseline is one
/// segment under its healthy ways; static partitioning (SP, SP-MRSTT) is two
/// segments routed by mode, each with its own retention class; dynamic
/// partitioning (DP, DP-STT) and its multicore generalization are one
/// segment whose ways are masked per mode or per group each epoch. The
/// segment owns the array, its TechParams, refresh engine, bank write queue,
/// optional fault injector, energy accountant and leakage integral, plus the
/// stream write-bypass and wear rotation (both off unless configured). The
/// designs pass the way mask and the TechParams an operation is priced at,
/// and declare how many ways are powered when their way plan changes.

#include <memory>

#include "cache/bank_model.hpp"
#include "cache/bypass_predictor.hpp"
#include "core/l2_interface.hpp"
#include "energy/refresh.hpp"
#include "energy/technology.hpp"
#include "fault/fault_injector.hpp"
#include "obs/telemetry.hpp"

namespace mobcache {

/// One segment: the shared baseline's array, either static-partition
/// segment (StaticPartitionConfig), or the array a way-gated design (DP,
/// multicore) masks.
struct L2SegmentConfig {
  CacheConfig cache;                     ///< geometry + replacement
  TechKind tech = TechKind::Sram;
  RetentionClass retention = RetentionClass::Hi;  ///< STT-RAM only
  RefreshPolicy refresh = RefreshPolicy::ScrubDirty;
  /// Optional stream write-bypass (meaningful for STT-RAM: skips the
  /// expensive install for predicted-dead fills; experiment E18).
  bool bypass = false;
  /// Wear leveling: rotate the set mapping after this many array writes
  /// (0 = off). Production values are billions of writes (days apart);
  /// experiment E20 uses small values to demonstrate the flattening.
  std::uint64_t wear_rotate_writes = 0;
  /// Fault injection + ECC + way-disable repair. Disabled by default; a
  /// disabled config builds no injector and leaves every result bit-identical
  /// to a fault-free binary.
  FaultConfig fault;
};

/// A plain SRAM segment over `cache`: no refresh, bypass, rotation or
/// faults (the drowsy and victim-buffer baselines).
L2SegmentConfig sram_array(const CacheConfig& cache);

/// Per-access dynamic energies of `t` scaled to `ways` of `assoc` enabled
/// ways: power-gated ways neither precharge bitlines nor fire sense amps,
/// so an access confined to a way group costs what a standalone array of
/// that size would (~sqrt(capacity)). Leakage and latencies are unchanged.
TechParams scaled_to_ways(const TechParams& t, std::uint32_t ways,
                          std::uint32_t assoc);

class L2Segment {
 public:
  /// `banked` = false drops the bank write-queue model (no read stalls, no
  /// write occupancy), as the multicore design's timing does.
  explicit L2Segment(const L2SegmentConfig& cfg, bool banked = true);
  // The fault injector holds a reference into the array: pinned in place.
  L2Segment(const L2Segment&) = delete;
  L2Segment& operator=(const L2Segment&) = delete;

  // Steps the designs compose, in per-operation order. -------------------

  /// Advances transient injection to `now` and drains the pending way
  /// quarantines: leakage is settled at the powered fraction first, then
  /// each way's blocks are invalidated (dirty ones written back to DRAM)
  /// and reported. Afterwards the segment powers its healthy ways; an owner
  /// that gates more re-declares its powered ways. Returns the ways drained
  /// (always 0 without fault injection).
  std::uint32_t service_faults(Cycle now, Telemetry* tel) {
    return fault_ == nullptr ? 0 : drain_quarantines(now, tel);
  }
  /// Runs the refresh tick when it is due (or unconditionally when
  /// `forced`), pricing scrub rewrites at `t`. No-op at infinite retention.
  void refresh(Cycle now, const TechParams& t, Telemetry* tel,
               bool forced = false) {
    if (tech_.retention_cycles != 0 && (forced || refresher_.due(now))) {
      refresh_tick(now, t, tel);
    }
  }
  /// A demand access priced at `t`'s energies: hit read or posted store, or
  /// a miss with its probe read, DRAM fetch, fill and displaced-dirty
  /// writebacks (or, for a predicted-dead read, a bypassed fill).
  L2Result access(Addr line, AccessType type, Mode mode, Cycle now,
                  WayMask mask, const TechParams& t, Telemetry* tel);
  /// An L1 castout: one array write (allocating on a miss), queued behind
  /// the bank's in-flight write.
  void writeback(Addr line, Mode owner, Cycle now, WayMask mask,
                 const TechParams& t, Telemetry* tel);
  /// A prefetch: tag probe read, plus the fill when the line was absent.
  AccessResult prefetch(Addr line, Mode mode, Cycle now, WayMask mask,
                        const TechParams& t, Telemetry* tel);
  /// Invalidates `ways`, writing their dirty blocks back to DRAM (ways
  /// powering off or quarantined). Returns the dirty blocks written back.
  std::uint64_t flush_ways(WayMask ways);
  /// Settles leakage through `now` at the powered fraction, then powers
  /// `ways` of the array's ways from `now` on.
  void set_powered(Cycle now, std::uint32_t ways) {
    settle_leakage(now);
    enabled_ = fraction_of(ways);
    gated_ = true;
  }
  /// Charges leakage for [leak mark, now) at the powered fraction.
  void settle_leakage(Cycle now);
  /// Program end: resident dirty blocks flush to DRAM (so designs with
  /// different residual dirty state compare fairly) and leakage settles.
  void finish(Cycle end);

  // A whole operation of a segment under its healthy ways at its own
  // energies: the shared baseline, and each static-partition segment. ----

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now,
                  Telemetry* tel) {
    prologue(now, tel);
    return access(line, type, mode, now, active_mask(), tech_, tel);
  }
  void writeback(Addr line, Mode owner, Cycle now, Telemetry* tel) {
    prologue(now, tel);
    writeback(line, owner, now, active_mask(), tech_, tel);
  }
  void prefetch(Addr line, Mode mode, Cycle now, Telemetry* tel) {
    prologue(now, tel);
    prefetch(line, mode, now, active_mask(), tech_, tel);
  }
  void finalize(Cycle end, Telemetry* tel) {
    if (finalized_) return;
    prologue(end, tel);
    finish(end);
  }

  // State. ---------------------------------------------------------------

  const SetAssocCache& array() const { return cache_; }
  SetAssocCache& array() { return cache_; }
  const TechParams& tech() const { return tech_; }
  /// Core-visible stall of one DRAM fetch, in cycles at the clock of the
  /// technology configuration the segment was built under (captured with
  /// its TechParams).
  Cycle dram_stall() const { return dram_stall_; }
  const EnergyBreakdown& energy() const { return acct_.breakdown(); }
  /// For designs that also price what the segment does not model (drowsy
  /// leakage windows, the victim buffer).
  EnergyAccountant& accountant() { return acct_; }
  CacheStats aggregate_stats() const { return cache_.stats(); }
  std::uint64_t capacity_bytes() const { return cache_.config().size_bytes; }
  /// ∫ powered bytes dt / run length. The full capacity before finish(),
  /// and always for a segment that cannot gate (no fault injection and no
  /// owner-declared fraction).
  double avg_enabled_bytes() const {
    if (!gated_ || final_cycle_ == 0) {
      return static_cast<double>(capacity_bytes());
    }
    return enabled_byte_cycles_ / static_cast<double>(final_cycle_);
  }
  /// Fraction of the array powered now.
  double powered_fraction() const { return enabled_; }
  bool finalized() const { return finalized_; }
  /// "<design> 2048KB 16-way STT-RAM Lo": the array part of the designs'
  /// describe() strings (the retention class only for STT-RAM).
  std::string describe(const char* design) const;
  /// Fills skipped by the stream write-bypass predictor.
  std::uint64_t bypassed_fills() const { return bypass_.bypasses(); }
  /// Wear-leveling rotations performed so far.
  std::uint64_t rotations() const { return rotations_; }
  /// Fault subsystem (null when the config's fault injection is disabled).
  const FaultInjector* fault_injector() const { return fault_.get(); }
  std::uint32_t quarantined_ways() const {
    return fault_ == nullptr ? 0 : fault_->repair().quarantined_ways();
  }
  std::uint32_t healthy_ways() const {
    return fault_ == nullptr ? cache_.assoc()
                             : fault_->repair().healthy_ways();
  }
  /// Ways currently in service (excludes quarantined ways).
  WayMask active_mask() const {
    const WayMask full = full_way_mask(cache_.assoc());
    return fault_ == nullptr ? full : (full & fault_->repair().healthy_mask());
  }
  /// Dirty blocks flush_ways() has written back so far.
  std::uint64_t flush_writebacks() const { return flush_writebacks_; }

 private:
  void prologue(Cycle now, Telemetry* tel) {
    service_faults(now, tel);
    refresh(now, tech_, tel);
  }
  std::uint32_t drain_quarantines(Cycle now, Telemetry* tel);
  void refresh_tick(Cycle now, const TechParams& t, Telemetry* tel);
  /// Probes the array under `mask`, charging and reporting an ECC
  /// correction or a lost block. Every operation goes through here.
  AccessResult probe(Addr line, AccessType type, Mode mode, Cycle now,
                     WayMask mask, Telemetry* tel, bool prefetch = false,
                     bool no_alloc = false);
  /// DRAM fetch, fill write and displaced-dirty writebacks of a fill.
  void charge_fill(const AccessResult& r, const TechParams& t);
  /// Counts one array write toward the next wear-leveling rotation.
  void count_array_write() {
    if (wear_rotate_writes_ != 0 &&
        ++writes_since_rotation_ >= wear_rotate_writes_) {
      rotate();
    }
  }
  void rotate();
  double fraction_of(std::uint32_t ways) const {
    return static_cast<double>(ways) / static_cast<double>(cache_.assoc());
  }
  void enqueue_write(Addr line, Cycle now) {
    if (banked_) banks_.write_enqueue(line, now, tech_.write_latency);
  }

  SetAssocCache cache_;
  TechParams tech_;
  Cycle dram_stall_;
  RefreshController refresher_;
  EnergyAccountant acct_;
  std::unique_ptr<FaultInjector> fault_;
  BankModel banks_;
  bool banked_;
  StreamBypassPredictor bypass_;
  std::uint64_t wear_rotate_writes_;
  std::uint64_t writes_since_rotation_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t flush_writebacks_ = 0;
  double enabled_ = 1.0;              ///< powered fraction of the array
  bool gated_ = false;                ///< the fraction can leave 1.0
  Cycle leak_mark_ = 0;               ///< leakage settled up to this cycle
  double enabled_byte_cycles_ = 0.0;  ///< ∫ enabled bytes dt
  Cycle final_cycle_ = 0;
  bool finalized_ = false;
};

/// An L2Interface design over one segment (the shared baseline, DP and the
/// drowsy and victim-buffer baselines): what it reports about its array
/// comes straight from the segment.
class OneSegmentL2 : public L2Interface {
 public:
  const EnergyBreakdown& energy() const override { return seg_.energy(); }
  CacheStats aggregate_stats() const override {
    return seg_.aggregate_stats();
  }
  std::uint64_t capacity_bytes() const override {
    return seg_.capacity_bytes();
  }
  double avg_enabled_bytes() const override {
    return seg_.avg_enabled_bytes();
  }
  std::uint32_t quarantined_ways() const override {
    return seg_.quarantined_ways();
  }
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override {
    seg_.array().add_eviction_observer(std::move(obs));
  }
  const SetAssocCache& array() const { return seg_.array(); }
  /// Fault subsystem (null when the config's fault injection is disabled).
  const FaultInjector* fault_injector() const {
    return seg_.fault_injector();
  }

 protected:
  explicit OneSegmentL2(const L2SegmentConfig& cfg) : seg_(cfg) {}

  L2Segment seg_;
};

// The per-access path, inline so that each design's access compiles into
// one function with it (a call per access here measurably slowed DP-STT).
// GCC 12 at -O2 declines a plain `inline` for access() and emits one call
// per demand access, so access() insists.

inline AccessResult L2Segment::probe(Addr line, AccessType type, Mode mode,
                                     Cycle now, WayMask mask, Telemetry* tel,
                                     bool prefetch, bool no_alloc) {
  const AccessResult r =
      cache_.access(line, type, mode, now, mask, prefetch, no_alloc);
  if (fault_ != nullptr && (r.ecc_corrected || r.fault_lost)) {
    if (r.ecc_corrected) acct_.add_ecc(fault_->ecc().correction_energy_nj());
    if (tel != nullptr) {
      tel->record(FaultEvent{
          now, line, mode,
          r.fault_lost ? FaultReadOutcome::Lost : FaultReadOutcome::Corrected,
          r.fault_lost_dirty});
    }
  }
  return r;
}

inline void L2Segment::charge_fill(const AccessResult& r,
                                   const TechParams& t) {
  // Line fetch and fill write, then the writebacks of a displaced dirty
  // victim and of a dirty block whose expiry this probe discovered.
  acct_.add_dram(1);
  acct_.add_write(t);
  count_array_write();
  if (r.victim_dirty) acct_.add_dram(1);
  if (r.expired_was_dirty) acct_.add_dram(1);
}

[[gnu::always_inline]] inline L2Result L2Segment::access(
    Addr line, AccessType type, Mode mode, Cycle now, WayMask mask,
    const TechParams& t, Telemetry* tel) {
  // Bypass decision must precede the array update: a fill predicted dead is
  // not installed at all.
  const bool bypass_fill = type == AccessType::Read && bypass_.enabled() &&
                           bypass_.decide_bypass(line);
  const AccessResult r =
      probe(line, type, mode, now, mask, tel, /*prefetch=*/false, bypass_fill);

  L2Result out;
  out.hit = r.hit;
  // Bank-occupancy stall: a read waits out at most the write currently
  // committed to its bank's array (queued writes yield to reads).
  const Cycle stall =
      banked_ ? banks_.read_stall(line, now, tech_.write_latency) : 0;

  if (r.hit) {
    if (bypass_.enabled()) bypass_.train_reuse(line);
    if (type == AccessType::Write) {
      acct_.add_write(t);
      count_array_write();
      enqueue_write(line, now);  // posted through the write queue
    } else {
      acct_.add_read(t);
      out.latency = stall + tech_.read_latency;
      if (r.ecc_corrected) out.latency += fault_->ecc().correction_latency();
    }
    return out;
  }

  // The fill write is overlapped with the DRAM fetch through the fill
  // buffer, so it does not occupy the bank for later reads.
  out.latency = type == AccessType::Write
                    ? 0
                    : stall + tech_.read_latency + dram_stall_;
  acct_.add_read(t);  // tag probe

  if (bypass_.enabled()) {
    // Every demand-read miss is a bypass verdict: either the fill was
    // skipped or it was installed (possibly as a probe).
    if (tel != nullptr && type == AccessType::Read) {
      tel->record(
          BypassDecisionEvent{now, line, mode, bypass_fill && !r.filled});
    }
    if (bypass_fill && !r.filled) {
      // Predicted-dead fill skipped: served straight from DRAM, the array
      // write saved entirely.
      bypass_.count_bypass();
      acct_.add_dram(1);
      return out;
    }
    if (r.evicted_valid) {
      bypass_.train_eviction(r.victim_line, r.victim_access_count > 1);
    }
  }
  charge_fill(r, t);
  return out;
}

}  // namespace mobcache
