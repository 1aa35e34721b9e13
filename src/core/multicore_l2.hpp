#pragma once
/// \file multicore_l2.hpp
/// Multicore generalization of the dynamic partition (future-work
/// extension): one shared L2 whose ways are assigned per epoch to G groups —
/// group 0 is the *kernel* segment shared by all cores (there is one kernel,
/// and its hot structures are shared), groups 1..N are per-core *user*
/// segments (processes have disjoint address spaces, so cross-core user
/// interference is pure pollution the same way user/kernel interference is).
///
/// Timing note: unlike the single-core designs, this model omits bank
/// write-queue stalls (multicore timing is dominated by the interconnect
/// and per-core clocks in our driver); energies are fully accounted.
///
/// Way layout: *stable per-way ownership* (way → group), not contiguous
/// spans — with three or more groups, repacking spans on every reallocation
/// would shift every group's ways and orphan their contents. A reallocation
/// only moves the specific ways released by shrinking groups. Lazy handover
/// applies (all groups reference disjoint address sets, so a transferred
/// way's stale blocks are unreachable by the new owner); only ways that
/// power off are flushed.

#include <vector>

#include "cache/shadow_monitor.hpp"
#include "core/l2_segment.hpp"

namespace mobcache {

struct MulticoreL2Config {
  CacheConfig cache;  ///< physical array (2 MB, 16-way by default)
  std::uint32_t cores = 2;
  TechKind tech = TechKind::SttRam;
  RetentionClass retention = RetentionClass::Lo;
  RefreshPolicy refresh = RefreshPolicy::ScrubDirty;
  Cycle refresh_check_interval = 2'000'000;
  std::uint64_t epoch_accesses = 10'000;
  std::uint32_t monitor_sample_shift = 4;
  double miss_slack = 0.05;
  std::uint32_t min_ways_per_group = 1;
  std::uint32_t max_step = 1;
};

/// Core-aware L2 interface (the single-core L2Interface does not carry a
/// core id). The multicore simulator drives this.
class MulticoreL2Interface {
 public:
  virtual ~MulticoreL2Interface() = default;
  virtual L2Result access(Addr line, AccessType type, Mode mode,
                          std::uint32_t core, Cycle now) = 0;
  virtual void writeback(Addr line, Mode owner, std::uint32_t core,
                         Cycle now) = 0;
  virtual void finalize(Cycle end) = 0;
  virtual const EnergyBreakdown& energy() const = 0;
  virtual CacheStats aggregate_stats() const = 0;
  virtual std::uint64_t capacity_bytes() const = 0;
  virtual double avg_enabled_bytes() const = 0;
  virtual std::string describe() const = 0;
};

/// Adapts any single-core L2 design (shared baseline, static partition) to
/// the multicore interface by ignoring the core id.
class ModeOnlyL2Adapter final : public MulticoreL2Interface {
 public:
  explicit ModeOnlyL2Adapter(std::unique_ptr<L2Interface> inner)
      : inner_(std::move(inner)) {}

  L2Result access(Addr line, AccessType type, Mode mode, std::uint32_t,
                  Cycle now) override {
    return inner_->access(line, type, mode, now);
  }
  void writeback(Addr line, Mode owner, std::uint32_t, Cycle now) override {
    inner_->writeback(line, owner, now);
  }
  void finalize(Cycle end) override { inner_->finalize(end); }
  const EnergyBreakdown& energy() const override { return inner_->energy(); }
  CacheStats aggregate_stats() const override {
    return inner_->aggregate_stats();
  }
  std::uint64_t capacity_bytes() const override {
    return inner_->capacity_bytes();
  }
  double avg_enabled_bytes() const override {
    return inner_->avg_enabled_bytes();
  }
  std::string describe() const override { return inner_->describe(); }

 private:
  std::unique_ptr<L2Interface> inner_;
};

/// The (cores+1)-group dynamically partitioned L2.
class MulticoreDynamicL2 final : public MulticoreL2Interface {
 public:
  explicit MulticoreDynamicL2(const MulticoreL2Config& cfg);

  L2Result access(Addr line, AccessType type, Mode mode, std::uint32_t core,
                  Cycle now) override;
  /// Castouts are priced at the full array's energies, with no refresh
  /// tick and no epoch accounting.
  void writeback(Addr line, Mode owner, std::uint32_t core,
                 Cycle now) override {
    seg_.writeback(line, owner, now, group_mask_[group_of(owner, core)],
                   seg_.tech(), nullptr);
  }
  void finalize(Cycle end) override;
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
  std::string describe() const override;

  std::uint32_t groups() const {
    return static_cast<std::uint32_t>(ways_.size());
  }
  /// Current way count of a group (0 = kernel, 1+core = that core's user).
  std::uint32_t group_ways(std::uint32_t g) const { return ways_[g]; }
  std::uint64_t reconfigurations() const { return reconfigs_; }
  const SetAssocCache& array() const { return seg_.array(); }

 private:
  std::uint32_t group_of(Mode mode, std::uint32_t core) const {
    return mode == Mode::Kernel ? 0 : 1 + core;
  }
  void rebuild_masks();
  std::uint32_t enabled_ways() const;
  void maybe_epoch(Cycle now);
  void decide_and_apply(Cycle now);

  MulticoreL2Config cfg_;
  L2Segment seg_;  ///< unbanked: this model has no write-queue stalls

  std::vector<std::uint32_t> ways_;      ///< way count per group
  std::vector<int> way_owner_;           ///< way → group index, -1 = off
  std::vector<WayMask> group_mask_;      ///< cached masks per group
  std::vector<ShadowTagMonitor> monitors_;
  std::vector<std::uint64_t> epoch_accesses_;
  std::uint64_t epoch_total_ = 0;
  std::uint64_t reconfigs_ = 0;
};

}  // namespace mobcache
