#include "core/multicore_l2.hpp"

#include <algorithm>

namespace mobcache {

MulticoreDynamicL2::MulticoreDynamicL2(const MulticoreL2Config& cfg)
    : cfg_(cfg), seg_(segment_config(cfg), /*banked=*/false) {
  const std::uint32_t groups = cfg_.cores + 1;
  // Even initial split across groups.
  ways_.assign(groups, std::max(cfg_.min_ways_per_group,
                                cfg_.cache.assoc / groups));
  while (enabled_ways() > cfg_.cache.assoc) {
    auto it = std::max_element(ways_.begin(), ways_.end());
    --*it;
  }
  // Initial stable ownership: group g takes the next ways_[g] ways.
  way_owner_.assign(cfg_.cache.assoc, -1);
  std::uint32_t next_way = 0;
  for (std::uint32_t g = 0; g < groups; ++g) {
    for (std::uint32_t i = 0; i < ways_[g]; ++i)
      way_owner_[next_way++] = static_cast<int>(g);
  }
  rebuild_masks();
  seg_.set_powered(0, enabled_ways());
  epoch_accesses_.assign(groups, 0);
  monitors_.reserve(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    monitors_.emplace_back(cfg_.cache.num_sets(), cfg_.monitor_sample_shift,
                           cfg_.cache.assoc);
  }
}

void MulticoreDynamicL2::rebuild_masks() {
  group_mask_.assign(ways_.size(), 0);
  for (std::uint32_t w = 0; w < cfg_.cache.assoc; ++w) {
    if (way_owner_[w] >= 0)
      group_mask_[static_cast<std::uint32_t>(way_owner_[w])] |= 1ull << w;
  }
}

std::uint32_t MulticoreDynamicL2::enabled_ways() const {
  std::uint32_t total = 0;
  for (std::uint32_t w : ways_) total += w;
  return total;
}

void MulticoreDynamicL2::decide_and_apply(Cycle now) {
  const std::uint32_t groups = static_cast<std::uint32_t>(ways_.size());

  // Per-group target from the miss-slack criterion (same math as the
  // two-group controller).
  std::vector<std::uint32_t> target(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const ShadowTagMonitor& mon = monitors_[g];
    const std::uint64_t full_hits = mon.hits_with_ways(cfg_.cache.assoc);
    const std::uint64_t accesses =
        std::max(mon.observed_accesses(), full_hits);
    if (accesses == 0) {
      target[g] = cfg_.min_ways_per_group;
      continue;
    }
    const double full_misses =
        static_cast<double>(accesses) - static_cast<double>(full_hits);
    const double required =
        static_cast<double>(full_hits) - cfg_.miss_slack * full_misses;
    std::uint32_t w = cfg_.cache.assoc;
    for (std::uint32_t c = cfg_.min_ways_per_group; c <= cfg_.cache.assoc;
         ++c) {
      if (static_cast<double>(mon.hits_with_ways(c)) >= required) {
        w = c;
        break;
      }
    }
    target[g] = std::max(w, cfg_.min_ways_per_group);
  }

  // Damped approach toward the targets.
  std::vector<std::uint32_t> next(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::uint32_t cur = ways_[g];
    const std::uint32_t tgt = target[g];
    next[g] = tgt > cur ? cur + std::min(tgt - cur, cfg_.max_step)
                        : cur - std::min(cur - tgt, cfg_.max_step);
  }

  // Budget: trim the group with the weakest marginal utility until it fits.
  auto marginal = [&](std::uint32_t g) {
    const std::uint32_t w = next[g];
    if (w <= cfg_.min_ways_per_group) return 1e18;  // cannot shrink
    return static_cast<double>(monitors_[g].hits_with_ways(w) -
                               monitors_[g].hits_with_ways(w - 1));
  };
  std::uint32_t total = 0;
  for (std::uint32_t w : next) total += w;
  while (total > cfg_.cache.assoc) {
    std::uint32_t weakest = 0;
    double weakest_marginal = 1e18;
    for (std::uint32_t g = 0; g < groups; ++g) {
      const double m = marginal(g);
      if (m < weakest_marginal) {
        weakest_marginal = m;
        weakest = g;
      }
    }
    if (weakest_marginal >= 1e18) break;  // everyone at minimum
    --next[weakest];
    --total;
  }

  if (next == ways_) return;

  // Move ownership with stable assignment: shrinking groups release their
  // highest-index ways into a free pool; growing groups claim from the pool
  // (or from previously-off ways). Unclaimed releases power off and flush.
  std::vector<std::uint32_t> freed;
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::uint32_t to_release = ways_[g] > next[g] ? ways_[g] - next[g] : 0;
    for (std::uint32_t w = cfg_.cache.assoc; w-- > 0 && to_release > 0;) {
      if (way_owner_[w] == static_cast<int>(g)) {
        way_owner_[w] = -1;
        freed.push_back(w);
        --to_release;
      }
    }
  }
  for (std::uint32_t w = 0; w < cfg_.cache.assoc; ++w) {
    if (way_owner_[w] == -1 &&
        std::find(freed.begin(), freed.end(), w) == freed.end()) {
      freed.push_back(w);  // previously-off ways are claimable too
    }
  }
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::uint32_t to_claim = next[g] > ways_[g] ? next[g] - ways_[g] : 0;
    while (to_claim > 0 && !freed.empty()) {
      way_owner_[freed.back()] = static_cast<int>(g);
      freed.pop_back();
      --to_claim;
    }
  }
  ways_ = next;
  rebuild_masks();
  seg_.set_powered(now, enabled_ways());
  // Whatever is left in the pool is powered off: flush it.
  WayMask off = 0;
  for (std::uint32_t w = 0; w < cfg_.cache.assoc; ++w) {
    if (way_owner_[w] == -1) off |= 1ull << w;
  }
  if (off != 0) seg_.flush_ways(off);
  ++reconfigs_;
}

void MulticoreDynamicL2::maybe_epoch(Cycle now) {
  if (epoch_total_ < cfg_.epoch_accesses) return;
  decide_and_apply(now);
  for (auto& m : monitors_) m.new_epoch();
  std::fill(epoch_accesses_.begin(), epoch_accesses_.end(), 0);
  epoch_total_ = 0;
}

L2Result MulticoreDynamicL2::access(Addr line, AccessType type, Mode mode,
                                    std::uint32_t core, Cycle now) {
  seg_.refresh(now, seg_.tech(), nullptr);

  const std::uint32_t g = group_of(mode, core);
  monitors_[g].access(line, seg_.array().set_index(line));
  ++epoch_accesses_[g];
  ++epoch_total_;

  const L2Result out = seg_.access(
      line, type, mode, now, group_mask_[g],
      scaled_to_ways(seg_.tech(), ways_[g], cfg_.cache.assoc), nullptr);
  maybe_epoch(now);
  return out;
}

void MulticoreDynamicL2::finalize(Cycle end) {
  if (seg_.finalized()) return;
  seg_.refresh(end, seg_.tech(), nullptr, /*forced=*/true);
  seg_.finish(end);
}

std::string MulticoreDynamicL2::describe() const {
  std::string d = "multicore-dynamic ";
  d += std::to_string(seg_.capacity_bytes() >> 10);
  d += "KB ";
  d += std::to_string(cfg_.cores);
  d += "-core (";
  d += std::to_string(groups());
  d += " groups) ";
  d += to_string(seg_.tech().kind);
  return d;
}

}  // namespace mobcache
