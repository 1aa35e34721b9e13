#include "cache/set_assoc_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <type_traits>
#include <utility>

namespace mobcache {

namespace {

/// Process-wide default kernel mode; 2 = not yet resolved from the
/// environment. Atomic because the parallel sweep executor constructs
/// caches from worker threads.
std::atomic<std::uint8_t> g_default_kernel_mode{2};

/// The ways w of a set for which pred(w) holds, as a mask. With AssocT != 0
/// this is a fold over a compile-time index sequence: straight-line code
/// with one compare per way, so there is no loop left for the optimizer to
/// keep (at -O2 GCC keeps a plain 16-trip loop rolled). AssocT == 0 loops
/// over the runtime associativity.
template <std::uint32_t AssocT, typename Pred>
WayMask ways_where(std::uint32_t assoc, Pred pred) {
  if constexpr (AssocT != 0) {
    return [&]<std::uint32_t... W>(
               std::integer_sequence<std::uint32_t, W...>) {
      return ((static_cast<WayMask>(pred(W)) << W) | ...);
    }(std::make_integer_sequence<std::uint32_t, AssocT>{});
  } else {
    WayMask m = 0;
    for (std::uint32_t w = 0; w < assoc; ++w)
      m |= static_cast<WayMask>(pred(w)) << w;
    return m;
  }
}

}  // namespace

KernelMode SetAssocCache::default_kernel_mode() {
  std::uint8_t v = g_default_kernel_mode.load(std::memory_order_relaxed);
  if (v == 2) {
    const char* e = std::getenv("MOBCACHE_REFERENCE_KERNEL");
    v = (e != nullptr && e[0] != '\0' && e[0] != '0') ? 1 : 0;
    g_default_kernel_mode.store(v, std::memory_order_relaxed);
  }
  return static_cast<KernelMode>(v);
}

void SetAssocCache::set_default_kernel_mode(KernelMode m) {
  g_default_kernel_mode.store(static_cast<std::uint8_t>(m),
                              std::memory_order_relaxed);
}

SetAssocCache::SetAssocCache(CacheConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      num_sets_(0),
      kernel_mode_(default_kernel_mode()) {
  cfg_.validate();
  num_sets_ = cfg_.num_sets();
  sets_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(num_sets_)));
  const std::size_t n = static_cast<std::size_t>(num_sets_) * cfg_.assoc;
  tags_.assign(n, kNoTag);
  flags_.assign(n, 0);
  deadline_.assign(n, 0);
  cold_.assign(n, ColdMeta{});
  wear_.assign(n, 0);
  repl_ = make_replacement(cfg_.repl, num_sets_, cfg_.assoc, seed);
  select_kernel();
}

void SetAssocCache::emit_eviction(std::size_t i, Cycle now) {
  EvictionEvent e;
  e.line = tags_[i];
  e.owner = owner_at(i);
  e.fill_cycle = cold_[i].fill_cycle;
  e.last_access = cold_[i].last_access;
  e.evict_cycle = now;
  e.dirty = (flags_[i] & kDirtyBit) != 0;
  e.access_count = cold_[i].access_count;
  for (const auto& obs : observers_) obs(e);
}

BlockMeta SetAssocCache::block(std::uint32_t set, std::uint32_t way) const {
  const std::size_t i = loc(set, way);
  BlockMeta b;
  b.line = tags_[i];
  b.valid = (flags_[i] & kValidBit) != 0;
  b.dirty = (flags_[i] & kDirtyBit) != 0;
  b.owner = owner_at(i);
  b.fill_cycle = cold_[i].fill_cycle;
  b.last_access = cold_[i].last_access;
  b.last_write = cold_[i].last_write;
  b.retention_deadline = deadline_[i];
  b.access_count = cold_[i].access_count;
  b.prefetched = (flags_[i] & kPrefetchedBit) != 0;
  b.fault_bits = cold_[i].fault_bits;
  return b;
}

bool SetAssocCache::invalidate_line(Addr line, bool* was_dirty) {
  const std::uint32_t set = set_index(line);
  for (std::uint32_t way = 0; way < cfg_.assoc; ++way) {
    const std::size_t i = loc(set, way);
    if ((flags_[i] & kValidBit) == 0 || tags_[i] != line) continue;
    if (was_dirty != nullptr) *was_dirty = (flags_[i] & kDirtyBit) != 0;
    notify_eviction(i, cold_[i].last_access);
    invalidate_at(i);
    repl_->on_invalidate(set, way);
    return true;
  }
  return false;
}

template <typename Repl, bool Plain, std::uint32_t AssocT>
AccessResult SetAssocCache::access_kernel(Addr line, AccessType type,
                                          Mode mode, Cycle now,
                                          WayMask allowed, bool prefetch,
                                          bool no_alloc) {
  AccessResult r;
  // AssocT != 0 pins every way scan below at compile time (select_kernel
  // only picks such a variant when cfg_.assoc matches).
  const std::uint32_t assoc = AssocT != 0 ? AssocT : cfg_.assoc;
  const std::uint32_t set = set_index(line);
  const std::size_t base = static_cast<std::size_t>(set) * assoc;
  // Repl == ReplacementPolicy keeps virtual dispatch (reference path); a
  // concrete final policy type turns every call below into a direct call on
  // the same state object.
  Repl& rp = static_cast<Repl&>(*repl_);
  if (!prefetch) ++stats_.accesses[static_cast<int>(mode)];

  // The metadata lanes below are only touched after the probe resolves;
  // issuing their loads now overlaps that latency with the tag scan on
  // sets that miss the host cache (random-set traffic).
  __builtin_prefetch(&flags_[base], 1);
  __builtin_prefetch(&cold_[base], 1);

  // Probe: branchless scan of the contiguous tag lane. Invalid blocks hold
  // kNoTag, so this is a pure tag compare — no flags load — with no early
  // exit and no data-dependent branch (an early-exit scan mispredicts on
  // nearly every hit, since the hit way is effectively random). Matches
  // outside `allowed` are masked off afterwards; countr_zero picks the
  // lowest allowed matching way, exactly what the old first-match loop
  // returned.
  const Addr* const tag_row = tags_.data() + base;
  const WayMask match =
      ways_where<AssocT>(assoc, [&](std::uint32_t w) {
        return tag_row[w] == line;
      }) &
      allowed;
  const std::uint32_t hit_way =
      match != 0 ? static_cast<std::uint32_t>(std::countr_zero(match))
                 : assoc;

  if (hit_way != assoc) {
    const std::uint32_t way = hit_way;
    const std::size_t i = base + way;
    bool dropped = false;
    if (!Plain && expired_at(i, now)) {
      // Retention ran out before this re-reference: the data is gone. The
      // scrub hardware wrote dirty data back at expiry; surface that so the
      // owner design can charge the DRAM write.
      const bool dirty = (flags_[i] & kDirtyBit) != 0;
      r.target_expired = true;
      r.expired_was_dirty = dirty;
      ++stats_.expired_blocks;
      if (dirty) ++stats_.expired_dirty;
      if constexpr (!Plain) notify_eviction(i, now);
      invalidate_at(i);
      rp.on_invalidate(set, way);
      dropped = true;  // fall through to the miss path
    } else if (!Plain && fault_hooks_ != nullptr && cold_[i].fault_bits != 0) {
      const FaultReadOutcome out = fault_hooks_->read_check(line, cold_[i].fault_bits);
      if (out == FaultReadOutcome::Corrected) {
        cold_[i].fault_bits = 0;
        ++stats_.ecc_corrections;
        r.ecc_corrected = true;
      } else if (out == FaultReadOutcome::Lost) {
        // Detected but uncorrectable: the block is unusable. Dirty data
        // cannot be written back — the decayed copy was the only one.
        const bool dirty = (flags_[i] & kDirtyBit) != 0;
        r.fault_lost = true;
        r.fault_lost_dirty = dirty;
        ++stats_.fault_losses;
        if (dirty) ++stats_.fault_lost_dirty;
        if constexpr (!Plain) notify_eviction(i, now);
        invalidate_at(i);
        rp.on_invalidate(set, way);
        dropped = true;  // fall through to the miss path
      } else {
        ++stats_.silent_faults;  // wrong data served; invisible to the host
      }
    }
    if (!dropped) {
      // Hit.
      r.hit = true;
      r.way = way;
      if (prefetch) return r;  // line already resident: prefetch is a no-op
      ++stats_.hits[static_cast<int>(mode)];
      if ((flags_[i] & kPrefetchedBit) != 0) {
        ++stats_.useful_prefetches;
        flags_[i] &= static_cast<std::uint8_t>(~kPrefetchedBit);
      }
      cold_[i].last_access = now;
      ++cold_[i].access_count;
      if (type == AccessType::Write) {
        ++stats_.store_hits;
        flags_[i] |= kDirtyBit;
        cold_[i].last_write = now;
        ++wear_[i];
        if (!Plain && fault_hooks_ != nullptr) apply_write_faults(i, set, way);
        if (!Plain && retention_period_ != 0)
          deadline_[i] = now + effective_period(line);
      }
      rp.on_hit(set, way);
      return r;
    }
  }

  // Bypassed fill, or no ways left to fill into (every way of the segment
  // quarantined): the miss is counted and served straight from DRAM.
  if (no_alloc || allowed == 0) return r;

  // Miss: first expire the allowed blocks past their deadline, then pick
  // a fill way — the lowest invalid allowed way if any, else a replacement
  // victim among the allowed ways.
  if constexpr (!Plain) {
    // Invalid blocks hold deadline 0, so the deadline lane alone finds
    // the expired blocks: two host lines for 16 ways. They are retired in
    // ascending way order.
    const Cycle* const deadline_row = deadline_.data() + base;
    const WayMask expired =
        ways_where<AssocT>(assoc, [&](std::uint32_t w) {
          return past_deadline(deadline_row[w], now);
        }) &
        allowed;
    for (WayMask m = expired; m != 0; m &= m - 1) {
      const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
      const std::size_t i = base + way;
      ++stats_.expired_blocks;
      if ((flags_[i] & kDirtyBit) != 0) {
        ++stats_.expired_dirty;
        r.expired_was_dirty = true;
      }
      notify_eviction(i, now);
      invalidate_at(i);
      rp.on_invalidate(set, way);
    }
  }
  // Invalid ⇔ kNoTag in the (already hot) tag row, so the first-invalid
  // scan is branchless like the probe.
  const WayMask invalid = ways_where<AssocT>(assoc, [&](std::uint32_t w) {
                            return tag_row[w] == kNoTag;
                          }) &
                          allowed;
  std::uint32_t fill_way =
      invalid != 0 ? static_cast<std::uint32_t>(std::countr_zero(invalid))
                   : assoc;  // sentinel: no free way

  if (fill_way == assoc) {
    fill_way = rp.choose_victim(set, allowed);
    const std::size_t v = base + fill_way;
    const bool victim_dirty = (flags_[v] & kDirtyBit) != 0;
    r.evicted_valid = true;
    r.victim_dirty = victim_dirty;
    r.victim_line = tags_[v];
    r.victim_owner = owner_at(v);
    r.victim_access_count = cold_[v].access_count;
    ++stats_.evictions;
    if (victim_dirty) ++stats_.writebacks;
    if (r.victim_owner != mode) ++stats_.cross_mode_evictions;
    if constexpr (!Plain) notify_eviction(v, now);
  }

  const std::size_t i = base + fill_way;
  tags_[i] = line;
  flags_[i] = static_cast<std::uint8_t>(
      kValidBit | (type == AccessType::Write ? kDirtyBit : 0) |
      (mode == Mode::Kernel ? kKernelBit : 0) |
      (prefetch ? kPrefetchedBit : 0));
  cold_[i].fill_cycle = now;
  cold_[i].last_access = now;
  cold_[i].last_write = now;
  deadline_[i] = retention_period_ == 0 ? 0 : now + effective_period(line);
  cold_[i].access_count = 1;
  cold_[i].fault_bits = 0;
  if (!Plain && fault_hooks_ != nullptr) apply_write_faults(i, set, fill_way);
  ++wear_[i];
  rp.on_fill(set, fill_way);

  r.filled = true;
  r.way = fill_way;
  if (prefetch) {
    ++stats_.prefetch_fills;
  } else {
    ++stats_.fills;
  }
  return r;
}

template <typename Repl, bool Plain>
SetAssocCache::AccessFn SetAssocCache::fast_kernel(std::uint32_t assoc) {
  if constexpr (std::is_same_v<Repl, LruPolicy>) {
    switch (assoc) {
      case 2: return &SetAssocCache::access_kernel<Repl, Plain, 2>;
      case 4: return &SetAssocCache::access_kernel<Repl, Plain, 4>;
      case 8: return &SetAssocCache::access_kernel<Repl, Plain, 8>;
      case 16: return &SetAssocCache::access_kernel<Repl, Plain, 16>;
      default: break;
    }
  }
  return &SetAssocCache::access_kernel<Repl, Plain>;
}

void SetAssocCache::select_kernel() {
  if (retention_period_ != 0) retention_ever_ = true;
  if (kernel_mode_ == KernelMode::Reference) {
    // The generic always-checking kernel through the virtual policy
    // interface: the behavioral baseline.
    kernel_ = &SetAssocCache::access_kernel<ReplacementPolicy, false>;
    return;
  }
  const bool plain =
      !retention_ever_ && fault_hooks_ == nullptr && observers_.empty();
  switch (cfg_.repl) {
    case ReplKind::Lru:
    case ReplKind::Fifo:  // FIFO shares LruPolicy (update_on_hit=false)
      kernel_ = plain ? fast_kernel<LruPolicy, true>(cfg_.assoc)
                      : fast_kernel<LruPolicy, false>(cfg_.assoc);
      break;
    case ReplKind::Random:
      kernel_ = plain ? fast_kernel<RandomPolicy, true>(cfg_.assoc)
                      : fast_kernel<RandomPolicy, false>(cfg_.assoc);
      break;
    case ReplKind::Plru:
      kernel_ = plain ? fast_kernel<PlruPolicy, true>(cfg_.assoc)
                      : fast_kernel<PlruPolicy, false>(cfg_.assoc);
      break;
    case ReplKind::Srrip:
      kernel_ = plain ? fast_kernel<SrripPolicy, true>(cfg_.assoc)
                      : fast_kernel<SrripPolicy, false>(cfg_.assoc);
      break;
  }
}

std::string SetAssocCache::kernel_name() const {
  if (kernel_mode_ == KernelMode::Reference) return "reference";
  std::string n = "fast/";
  n += to_string(cfg_.repl);
  if (retention_ever_) n += "+retention";
  if (fault_hooks_ != nullptr) n += "+fault";
  if (!observers_.empty()) n += "+obs";
  // Pinned: the policy's kernel at this associativity is not the
  // runtime-associativity one.
  if ((cfg_.repl == ReplKind::Lru || cfg_.repl == ReplKind::Fifo) &&
      fast_kernel<LruPolicy, true>(cfg_.assoc) !=
          &SetAssocCache::access_kernel<LruPolicy, true>)
    n += "@" + std::to_string(cfg_.assoc);
  return n;
}

bool SetAssocCache::refresh_block(std::uint32_t set, std::uint32_t way,
                                  Cycle now) {
  const std::size_t i = loc(set, way);
  if ((flags_[i] & kValidBit) == 0) return false;
  if (cold_[i].fault_bits != 0 && fault_hooks_ != nullptr) {
    // The scrub reads the block before rewriting it, so the corrector runs
    // here too: this is how a scrub *repairs* decayed blocks it reaches in
    // time. Silent corruption is rewritten faithfully (bits stay wrong).
    const FaultReadOutcome out =
        fault_hooks_->read_check(tags_[i], cold_[i].fault_bits);
    if (out == FaultReadOutcome::Lost) {
      ++stats_.fault_losses;
      if ((flags_[i] & kDirtyBit) != 0) ++stats_.fault_lost_dirty;
      notify_eviction(i, now);
      invalidate_at(i);
      repl_->on_invalidate(set, way);
      return false;
    }
    if (out == FaultReadOutcome::Corrected) {
      cold_[i].fault_bits = 0;
      ++stats_.scrub_repairs;
    }
  }
  cold_[i].last_write = now;
  ++wear_[i];
  if (fault_hooks_ != nullptr) apply_write_faults(i, set, way);
  if (retention_period_ != 0)
    deadline_[i] = now + effective_period(tags_[i]);
  ++stats_.refreshes;
  return true;
}

void SetAssocCache::apply_write_faults(std::size_t i, std::uint32_t set,
                                       std::uint32_t way) {
  const std::uint32_t upsets = fault_hooks_->write_upsets(tags_[i], set, way);
  if (upsets == 0) return;
  ++stats_.write_faults;
  cold_[i].fault_bits = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(cold_[i].fault_bits + upsets, 0xffffu));
}

bool SetAssocCache::corrupt_block(std::uint32_t set, std::uint32_t way,
                                  std::uint32_t bits) {
  const std::size_t i = loc(set, way);
  if ((flags_[i] & kValidBit) == 0 || bits == 0) return false;
  cold_[i].fault_bits = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(cold_[i].fault_bits + bits, 0xffffu));
  ++stats_.transient_upsets;
  return true;
}

std::uint64_t SetAssocCache::rotate_index(std::uint32_t new_xor_key) {
  const std::uint64_t dirty = invalidate_ways(full_way_mask(cfg_.assoc));
  index_rotation_ = new_xor_key & (num_sets_ - 1);
  return dirty;
}

WearSummary SetAssocCache::wear_summary() const {
  WearSummary w;
  std::vector<std::uint32_t> sorted = wear_;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t v : sorted) {
    w.total_writes += v;
    w.max_writes = std::max(w.max_writes, v);
  }
  w.mean_writes =
      static_cast<double>(w.total_writes) / static_cast<double>(wear_.size());
  w.p99_writes = sorted[sorted.size() - 1 - sorted.size() / 100];
  return w;
}

std::pair<std::uint64_t, std::uint64_t> SetAssocCache::expire_sweep(Cycle now) {
  std::uint64_t total = 0;
  std::uint64_t dirty = 0;
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    for (std::uint32_t way = 0; way < cfg_.assoc; ++way) {
      const std::size_t i = loc(set, way);
      if ((flags_[i] & kValidBit) == 0 || !expired_at(i, now)) continue;
      ++total;
      ++stats_.expired_blocks;
      if ((flags_[i] & kDirtyBit) != 0) {
        ++dirty;
        ++stats_.expired_dirty;
      }
      notify_eviction(i, now);
      invalidate_at(i);
      repl_->on_invalidate(set, way);
    }
  }
  return {total, dirty};
}

std::uint64_t SetAssocCache::invalidate_ways(WayMask ways) {
  std::uint64_t dirty_flushed = 0;
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    for (WayMask m = ways; m != 0; m &= m - 1) {
      const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
      if (way >= cfg_.assoc) break;
      const std::size_t i = loc(set, way);
      if ((flags_[i] & kValidBit) == 0) continue;
      if ((flags_[i] & kDirtyBit) != 0) ++dirty_flushed;
      notify_eviction(i, cold_[i].last_access);
      invalidate_at(i);
      repl_->on_invalidate(set, way);
    }
  }
  return dirty_flushed;
}

std::uint64_t SetAssocCache::occupancy(WayMask ways, Cycle now) const {
  std::uint64_t count = 0;
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    for (WayMask m = ways; m != 0; m &= m - 1) {
      const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
      if (way >= cfg_.assoc) break;
      const std::size_t i = loc(set, way);
      if ((flags_[i] & kValidBit) != 0 && !expired_at(i, now)) ++count;
    }
  }
  return count;
}

std::uint64_t SetAssocCache::dirty_occupancy(WayMask ways, Cycle now) const {
  std::uint64_t count = 0;
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    for (WayMask m = ways; m != 0; m &= m - 1) {
      const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
      if (way >= cfg_.assoc) break;
      const std::size_t i = loc(set, way);
      if ((flags_[i] & (kValidBit | kDirtyBit)) == (kValidBit | kDirtyBit) &&
          !expired_at(i, now))
        ++count;
    }
  }
  return count;
}

void SetAssocCache::for_each_valid_block(
    const std::function<void(std::uint32_t, std::uint32_t, const BlockMeta&)>&
        fn) const {
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    for (std::uint32_t way = 0; way < cfg_.assoc; ++way) {
      if ((flags_[loc(set, way)] & kValidBit) == 0) continue;
      const BlockMeta b = block(set, way);
      fn(set, way, b);
    }
  }
}

bool SetAssocCache::contains(Addr line, Cycle now) const {
  const std::uint32_t set = set_index(line);
  for (std::uint32_t way = 0; way < cfg_.assoc; ++way) {
    const std::size_t i = loc(set, way);
    if ((flags_[i] & kValidBit) != 0 && tags_[i] == line &&
        !expired_at(i, now))
      return true;
  }
  return false;
}

}  // namespace mobcache
