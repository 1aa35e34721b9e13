#include "core/victim_cache_l2.hpp"

#include <algorithm>

namespace mobcache {

VictimCacheL2::VictimCacheL2(const VictimCacheL2Config& cfg)
    : OneSegmentL2(sram_array(cfg.cache)),
      cfg_(cfg),
      victim_tech_(make_sram(std::max<std::uint64_t>(
          4096, static_cast<std::uint64_t>(cfg.victim_entries) * kLineSize))) {
}

bool VictimCacheL2::pop_victim(Addr line, VictimEntry& out) {
  const auto it =
      std::find_if(victims_.begin(), victims_.end(),
                   [&](const VictimEntry& e) { return e.line == line; });
  if (it == victims_.end()) return false;
  out = *it;
  victims_.erase(it);
  return true;
}

void VictimCacheL2::push_victim(const AccessResult& r, Mode requester) {
  if (victims_.size() == cfg_.victim_entries && !victims_.empty()) {
    // Oldest victim leaves for good; dirty data goes to DRAM.
    if (victims_.front().dirty) seg_.accountant().add_dram(1);
    victims_.pop_front();
  }
  victims_.push_back({r.victim_line, r.victim_owner, r.victim_dirty,
                      r.victim_owner != requester});
  seg_.accountant().add_write(victim_tech_);
}

L2Result VictimCacheL2::access(Addr line, AccessType type, Mode mode,
                               Cycle now) {
  const AccessResult r = seg_.array().access(line, type, mode, now);
  EnergyAccountant& acct = seg_.accountant();
  const TechParams& tech = seg_.tech();

  L2Result out;
  out.hit = r.hit;
  if (r.hit) {
    acct.add_read(tech);
    out.latency = type == AccessType::Write ? 0 : tech.read_latency;
    return out;
  }

  // Main-array miss: probe the victim buffer (searched in parallel with the
  // DRAM request issue; a hit cancels it).
  acct.add_read(tech);
  acct.add_read(victim_tech_);
  VictimEntry rescued;
  const bool vhit = pop_victim(line, rescued);
  if (vhit) {
    ++victim_hits_;
    if (rescued.cross_mode_eviction) ++cross_mode_rescues_;
  } else {
    acct.add_dram(1);
  }
  // The line (from buffer or DRAM) fills the main array; the block it
  // displaces drops into the victim buffer.
  acct.add_write(tech);
  if (r.evicted_valid) push_victim(r, mode);
  // Note: the fill inherited `rescued.dirty` in real hardware; model the
  // conservative path by charging the eventual writeback now.
  if (vhit && rescued.dirty && type != AccessType::Write) acct.add_dram(1);

  out.latency =
      type == AccessType::Write
          ? 0
          : tech.read_latency +
                (vhit ? victim_tech_.read_latency
                      : dram_visible_stall_cycles());
  return out;
}

void VictimCacheL2::writeback(Addr line, Mode owner, Cycle now) {
  const AccessResult r =
      seg_.array().access(line, AccessType::Write, owner, now);
  seg_.accountant().add_write(seg_.tech());
  if (!r.hit && r.evicted_valid) push_victim(r, owner);
}

void VictimCacheL2::finalize(Cycle end) {
  if (seg_.finalized()) return;
  seg_.finish(end);  // main array: leakage and its resident dirty blocks
  seg_.accountant().add_leakage(victim_tech_, end);
  for (const VictimEntry& e : victims_) {
    if (e.dirty) seg_.accountant().add_dram(1);
  }
}

std::string VictimCacheL2::describe() const {
  return "shared " + std::to_string(seg_.capacity_bytes() >> 10) +
         "KB SRAM + " + std::to_string(cfg_.victim_entries) +
         "-entry victim buffer";
}

}  // namespace mobcache
