#include "core/l2_segment.hpp"

#include <algorithm>
#include <cmath>

namespace mobcache {

namespace {

/// Maintenance cadence; clamped to t_ret/2 when retention is finite.
constexpr Cycle kRefreshCheckInterval = 2'000'000;

/// The refresh engine guarantees scrubbed blocks never expire only when it
/// runs at least twice per retention period.
Cycle clamp_interval(Cycle requested, Cycle retention) {
  if (retention == 0) return requested;
  return std::min(requested, retention / 2);
}

}  // namespace

L2SegmentConfig sram_array(const CacheConfig& cache) {
  L2SegmentConfig c;
  c.cache = cache;
  return c;
}

TechParams scaled_to_ways(const TechParams& t, std::uint32_t ways,
                          std::uint32_t assoc) {
  TechParams out = t;
  const double frac = static_cast<double>(ways) / static_cast<double>(assoc);
  const double s = std::sqrt(std::max(frac, 1e-9));
  out.read_energy_nj *= s;
  out.write_energy_nj *= s;
  return out;
}

L2Segment::L2Segment(const L2SegmentConfig& cfg, bool banked)
    : cache_(cfg.cache),
      tech_(cfg.tech == TechKind::Sram
                ? make_sram(cfg.cache.size_bytes)
                : make_sttram(cfg.cache.size_bytes, cfg.retention)),
      dram_stall_(dram_visible_stall_cycles()),
      refresher_(cfg.refresh, clamp_interval(kRefreshCheckInterval,
                                             tech_.retention_cycles)),
      banked_(banked),
      bypass_(cfg.bypass),
      wear_rotate_writes_(cfg.wear_rotate_writes) {
  cache_.set_retention_period(tech_.retention_cycles);
  if (cfg.fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(cfg.fault, cache_);
  }
  gated_ = fault_ != nullptr;
}

std::uint32_t L2Segment::drain_quarantines(Cycle now, Telemetry* tel) {
  fault_->tick(now);
  auto& rep = fault_->repair();
  if (!rep.has_pending()) return 0;
  // The ways are about to power off: settle leakage at the old powered
  // fraction first, so the piecewise integral stays exact.
  settle_leakage(now);
  std::uint32_t drained = 0;
  while (rep.has_pending()) {
    const std::uint32_t way = rep.take_pending();
    // Quarantined blocks are still readable; dirty ones drain to DRAM.
    const std::uint64_t dirty = flush_ways(way_bit(way));
    if (tel != nullptr) {
      tel->record(WayQuarantineEvent{now, cache_.config().name, way,
                                     rep.fault_count(way),
                                     rep.healthy_ways(), dirty});
    }
    ++drained;
  }
  enabled_ = fraction_of(rep.healthy_ways());
  return drained;
}

std::uint64_t L2Segment::flush_ways(WayMask ways) {
  const std::uint64_t dirty = cache_.invalidate_ways(ways);
  flush_writebacks_ += dirty;
  acct_.add_dram(dirty);
  return dirty;
}

void L2Segment::refresh_tick(Cycle now, const TechParams& t,
                             Telemetry* tel) {
  const RefreshTickResult rt = refresher_.tick(cache_, now, t, acct_);
  if (tel != nullptr && (rt.refreshed | rt.expired_clean | rt.expired_dirty |
                         rt.repaired | rt.fault_lost)) {
    tel->record(RefreshBurstEvent{now, rt.refreshed, rt.expired_clean,
                                  rt.expired_dirty, rt.repaired,
                                  rt.fault_lost});
  }
}

void L2Segment::writeback(Addr line, Mode owner, Cycle now, WayMask mask,
                          const TechParams& t, Telemetry* tel) {
  const AccessResult r = probe(line, AccessType::Write, owner, now, mask, tel);
  acct_.add_write(t);
  count_array_write();
  if (!r.hit) {
    if (r.victim_dirty) acct_.add_dram(1);
    if (r.expired_was_dirty) acct_.add_dram(1);
  }
  enqueue_write(line, now);
}

AccessResult L2Segment::prefetch(Addr line, Mode mode, Cycle now,
                                 WayMask mask, const TechParams& t,
                                 Telemetry* tel) {
  const AccessResult r =
      probe(line, AccessType::Read, mode, now, mask, tel, /*prefetch=*/true);
  acct_.add_read(t);  // tag probe
  if (r.filled) charge_fill(r, t);
  return r;
}

void L2Segment::rotate() {
  writes_since_rotation_ = 0;
  ++rotations_;
  // Golden-ratio key spreads hot indices across the whole array.
  const auto key = static_cast<std::uint32_t>(rotations_ * 0x9E3779B1u);
  acct_.add_dram(cache_.rotate_index(key));
}

void L2Segment::settle_leakage(Cycle now) {
  if (now <= leak_mark_) return;
  const Cycle span = now - leak_mark_;
  acct_.add_leakage(tech_, span, enabled_);
  enabled_byte_cycles_ += enabled_ * static_cast<double>(span) *
                          static_cast<double>(cache_.config().size_bytes);
  leak_mark_ = now;
}

void L2Segment::finish(Cycle end) {
  finalized_ = true;
  acct_.add_dram(cache_.dirty_occupancy(full_way_mask(cache_.assoc()), end));
  settle_leakage(end);
  final_cycle_ = end;
}

std::string L2Segment::describe(const char* design) const {
  std::string d = design;
  d += " ";
  d += std::to_string(capacity_bytes() >> 10);
  d += "KB ";
  d += std::to_string(cache_.assoc());
  d += "-way ";
  d += to_string(tech_.kind);
  if (tech_.kind == TechKind::SttRam) {
    d += " ";
    d += to_string(tech_.retention);
  }
  return d;
}

}  // namespace mobcache
