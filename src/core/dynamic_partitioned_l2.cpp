#include "core/dynamic_partitioned_l2.hpp"

#include "obs/telemetry.hpp"

namespace mobcache {

namespace {

ControllerConfig tuned_controller(const DynamicL2Config& cfg,
                                  const TechParams& tech) {
  ControllerConfig c = cfg.controller;
  c.total_ways = cfg.cache.assoc;
  // Energy criterion: one way's static power; the controller multiplies by
  // the measured epoch span to decide whether a way's hits pay its leakage.
  c.way_leak_mw = tech.leakage_mw / static_cast<double>(cfg.cache.assoc);
  c.dram_nj_per_miss = tech_constants::kDramAccessNj;
  return c;
}

}  // namespace

DynamicPartitionedL2::DynamicPartitionedL2(const DynamicL2Config& cfg)
    : OneSegmentL2(segment_config(cfg, cfg.fault)),
      epoch_length_(cfg.epoch_accesses),
      controller_(tuned_controller(cfg, seg_.tech())),
      alloc_(controller_.current()),
      user_monitor_(cfg.cache.num_sets(), cfg.monitor_sample_shift,
                    cfg.cache.assoc),
      kernel_monitor_(cfg.cache.num_sets(), cfg.monitor_sample_shift,
                      cfg.cache.assoc) {
  adopt(alloc_, 0);
}

WayAllocation DynamicPartitionedL2::clamp_to_healthy(WayAllocation a) const {
  const std::uint32_t h = seg_.healthy_ways();
  while (a.user_ways + a.kernel_ways > h) {
    if (a.user_ways > a.kernel_ways) {
      --a.user_ways;
    } else if (a.kernel_ways > 1) {
      --a.kernel_ways;
    } else if (a.user_ways > 0) {
      --a.user_ways;
    } else {
      --a.kernel_ways;  // unreachable: repair never drains the last way
    }
  }
  return a;
}

void DynamicPartitionedL2::prologue(Cycle now, bool at_end) {
  // The budget shrank: renegotiate the live split instead of asserting.
  if (seg_.service_faults(now, telemetry_) != 0) {
    adopt(clamp_to_healthy(alloc_), now);
  }
  // Unlike SharedL2, the tick at the end runs even when not due and
  // reports no burst (same-cycle re-entry is idempotent inside tick()).
  seg_.refresh(now, refresh_tech(), at_end ? nullptr : telemetry_, at_end);
}

void DynamicPartitionedL2::adopt(WayAllocation a, Cycle now) {
  // Leakage keeps using the full-array params scaled by the powered
  // fraction; only the per-access energies follow the segment sizes.
  alloc_ = a;
  masks_ = masks_for(a);
  const std::uint32_t assoc = seg_.array().assoc();
  seg_tech_[0] = scaled_to_ways(seg_.tech(), a.user_ways, assoc);
  seg_tech_[1] = scaled_to_ways(seg_.tech(), a.kernel_ways, assoc);
  // The split never exceeds the healthy ways (clamp_to_healthy), so its
  // two way masks are disjoint and it powers exactly its total.
  seg_.set_powered(now, a.total());
}

void DynamicPartitionedL2::apply_allocation(WayAllocation next, Cycle now) {
  if (next.user_ways == alloc_.user_ways &&
      next.kernel_ways == alloc_.kernel_ways) {
    return;
  }
  // Only ways that power off must be written back and invalidated. A way
  // transferred between segments keeps its contents: user and kernel
  // address spaces are disjoint, so the new owner can never falsely hit a
  // stale block — it just evicts them on demand (lazy handover, far cheaper
  // than a bulk flush on every phase change).
  const auto new_masks = masks_for(next);
  const WayMask old_on = masks_[0] | masks_[1];
  const WayMask new_on = new_masks[0] | new_masks[1];
  const WayMask to_flush = old_on & ~new_on;
  const std::uint64_t flushed = to_flush == 0 ? 0 : seg_.flush_ways(to_flush);

  if (telemetry_) {
    telemetry_->record(PartitionResizeEvent{now, alloc_.user_ways,
                                            alloc_.kernel_ways, next.user_ways,
                                            next.kernel_ways, flushed});
  }

  adopt(next, now);
  history_.push_back({now, alloc_.user_ways, alloc_.kernel_ways});
}

void DynamicPartitionedL2::maybe_epoch(Cycle now) {
  if (epoch_access_count_ < epoch_length_) return;

  auto demand_of = [&](ShadowTagMonitor& mon, int mode_idx) {
    ModeDemand d;
    const std::uint32_t assoc = seg_.array().assoc();
    d.hits_with.resize(assoc + 1, 0);
    for (std::uint32_t w = 1; w <= assoc; ++w)
      d.hits_with[w] = mon.hits_with_ways(w);
    d.monitor_accesses = mon.observed_accesses();
    d.accesses = epoch_accesses_[mode_idx];
    d.misses = epoch_misses_[mode_idx];
    d.epoch_cycles = now > epoch_start_cycle_ ? now - epoch_start_cycle_ : 0;
    return d;
  };

  const ModeDemand user = demand_of(user_monitor_, 0);
  const ModeDemand kernel = demand_of(kernel_monitor_, 1);
  apply_allocation(clamp_to_healthy(controller_.decide(user, kernel)), now);

  // Settle leakage at every epoch boundary (idempotent when the allocation
  // just changed) so the telemetry sample below attributes the interval's
  // static energy to this epoch rather than whenever the next resize lands.
  seg_.settle_leakage(now);
  if (telemetry_) {
    EpochSample s;
    s.epoch = epoch_index_;
    s.cycle = now;
    s.accesses = epoch_accesses_[0] + epoch_accesses_[1];
    s.misses = epoch_misses_[0] + epoch_misses_[1];
    fill_sample(s);
    const EnergyBreakdown d = seg_.energy() - last_epoch_energy_;
    s.refresh_nj = d.refresh_nj;
    s.leakage_nj = d.leakage_nj;
    telemetry_->record(s);
  }
  ++epoch_index_;
  last_epoch_energy_ = seg_.energy();

  user_monitor_.new_epoch();
  kernel_monitor_.new_epoch();
  epoch_access_count_ = 0;
  epoch_misses_[0] = epoch_misses_[1] = 0;
  epoch_accesses_[0] = epoch_accesses_[1] = 0;
  epoch_start_cycle_ = now;
}

L2Result DynamicPartitionedL2::do_access(Addr line, AccessType type,
                                         Mode mode, Cycle now, bool demand) {
  prologue(now);
  const int m = static_cast<int>(mode);
  if (demand) {
    (mode == Mode::User ? user_monitor_ : kernel_monitor_)
        .access(line, seg_.array().set_index(line));
    ++epoch_access_count_;
    ++epoch_accesses_[m];
  }
  const L2Result out = seg_.access(line, type, mode, now, masks_[m],
                                   seg_tech_[m], telemetry_);
  if (demand) {
    if (!out.hit) ++epoch_misses_[m];
    maybe_epoch(now);
  }
  return out;
}

void DynamicPartitionedL2::prefetch(Addr line, Mode mode, Cycle now) {
  prologue(now);
  const int m = static_cast<int>(mode);
  seg_.prefetch(line, mode, now, masks_[m], seg_tech_[m], telemetry_);
}

void DynamicPartitionedL2::finalize(Cycle end) {
  if (seg_.finalized()) return;
  prologue(end, /*at_end=*/true);
  seg_.finish(end);
}

const TechParams& DynamicPartitionedL2::refresh_tech() const {
  // Scrub rewrites happen inside whichever segment holds the block; charge
  // the larger segment's (costlier) write energy as a conservative bound.
  return seg_tech_[alloc_.user_ways >= alloc_.kernel_ways ? 0 : 1];
}

std::string DynamicPartitionedL2::describe() const {
  return seg_.describe("dynamic-partitioned") + " (" +
         std::string(to_string(controller_.config().monitor)) + ")";
}

}  // namespace mobcache
