#include "core/drowsy_l2.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace mobcache {

DrowsyL2::DrowsyL2(const DrowsyL2Config& cfg)
    : OneSegmentL2(sram_array(cfg.cache)),
      cfg_(cfg),
      awake_(static_cast<std::size_t>(cfg.cache.num_sets()) * cfg.cache.assoc,
             false) {}

void DrowsyL2::close_window(Cycle span, Cycle at) {
  // Effective leakage fraction of the closing window: woken lines are
  // awake for roughly half the window (they wake uniformly over it),
  // the rest stay drowsy throughout.
  const double total = static_cast<double>(awake_.size());
  const double awake_frac = static_cast<double>(awake_count_) / total;
  const double eff = awake_frac * (0.5 + 0.5 * cfg_.drowsy_leak_factor) +
                     (1.0 - awake_frac) * cfg_.drowsy_leak_factor;
  seg_.accountant().add_leakage(seg_.tech(), span, eff);
  leak_fraction_integral_ += static_cast<double>(span) * eff;
  if (telemetry_ && (awake_count_ != 0 || window_wakeups_ != 0)) {
    telemetry_->record(
        DrowsyTransitionEvent{at, awake_count_, window_wakeups_});
  }
}

void DrowsyL2::roll_windows(Cycle now) {
  while (now >= window_start_ + cfg_.window) {
    close_window(cfg_.window, window_start_ + cfg_.window);
    window_wakeups_ = 0;
    std::fill(awake_.begin(), awake_.end(), false);
    awake_count_ = 0;
    window_start_ += cfg_.window;
  }
}

bool DrowsyL2::wake(std::uint32_t set, std::uint32_t way) {
  const std::size_t idx =
      static_cast<std::size_t>(set) * seg_.array().assoc() + way;
  if (awake_[idx]) return false;
  awake_[idx] = true;
  ++awake_count_;
  ++wakeups_;
  ++window_wakeups_;
  return true;
}

L2Result DrowsyL2::access(Addr line, AccessType type, Mode mode, Cycle now) {
  roll_windows(now);
  const AccessResult r = seg_.array().access(line, type, mode, now);
  EnergyAccountant& acct = seg_.accountant();
  const TechParams& tech = seg_.tech();

  L2Result out;
  out.hit = r.hit;
  Cycle& busy = bank_busy_until_[(line / kLineSize) & 3];
  const Cycle stall = now < busy ? busy - now : 0;

  const bool woke = wake(seg_.array().set_index(line), r.way);
  const Cycle wake_pen = woke ? cfg_.wake_latency : 0;

  if (r.hit) {
    if (type == AccessType::Write) {
      acct.add_write(tech);
      busy = std::max(busy, now) + tech.write_latency;
    } else {
      acct.add_read(tech);
      out.latency = stall + wake_pen + tech.read_latency;
    }
    return out;
  }

  acct.add_read(tech);
  acct.add_dram(1);
  acct.add_write(tech);
  if (r.victim_dirty) acct.add_dram(1);
  out.latency = type == AccessType::Write
                    ? 0
                    : stall + wake_pen + tech.read_latency +
                          dram_visible_stall_cycles();
  return out;
}

void DrowsyL2::writeback(Addr line, Mode owner, Cycle now) {
  roll_windows(now);
  const AccessResult r =
      seg_.array().access(line, AccessType::Write, owner, now);
  wake(seg_.array().set_index(line), r.way);
  seg_.accountant().add_write(seg_.tech());
  if (!r.hit && r.victim_dirty) seg_.accountant().add_dram(1);
  Cycle& busy = bank_busy_until_[(line / kLineSize) & 3];
  busy = std::max(busy, now) + seg_.tech().write_latency;
}

void DrowsyL2::prefetch(Addr line, Mode mode, Cycle now) {
  roll_windows(now);
  const AccessResult r =
      seg_.prefetch(line, mode, now, full_way_mask(seg_.array().assoc()),
                    seg_.tech(), telemetry_);
  if (r.filled) wake(seg_.array().set_index(line), r.way);
}

void DrowsyL2::finalize(Cycle end) {
  if (finalized_) return;
  finalized_ = true;
  roll_windows(end);
  if (end > window_start_) close_window(end - window_start_, end);  // tail
  const SetAssocCache& array = seg_.array();
  seg_.accountant().add_dram(
      array.dirty_occupancy(full_way_mask(array.assoc()), end));
  final_cycle_ = end;
}

double DrowsyL2::avg_leak_fraction() const {
  if (final_cycle_ == 0) return 1.0;
  return leak_fraction_integral_ / static_cast<double>(final_cycle_);
}

std::string DrowsyL2::describe() const {
  return "drowsy " + std::to_string(seg_.capacity_bytes() >> 10) + "KB " +
         std::to_string(seg_.array().assoc()) + "-way SRAM (window " +
         std::to_string(cfg_.window) + " cyc)";
}

}  // namespace mobcache
