#include "sim/multicore.hpp"

#include "workload/scenario.hpp"  // kAppSlotStride

namespace mobcache {

namespace {

/// Private per-core front end: L1I + L1D in front of the shared L2.
struct CoreFrontEnd {
  CoreFrontEnd(const HierarchyConfig& cfg) : l1i(cfg.l1i), l1d(cfg.l1d) {}

  SetAssocCache l1i;
  SetAssocCache l1d;
};

}  // namespace

MulticoreResult simulate_multicore(const std::vector<Trace>& per_core,
                                   MulticoreL2Interface& l2) {
  MulticoreResult res;
  res.scheme = l2.describe();
  res.l2_capacity_bytes = l2.capacity_bytes();

  const auto cores = static_cast<std::uint32_t>(per_core.size());
  const HierarchyConfig hierarchy;
  std::vector<CoreFrontEnd> fe;
  fe.reserve(cores);
  for (std::uint32_t c = 0; c < cores; ++c) fe.emplace_back(hierarchy);
  std::vector<std::size_t> cursor(cores, 0);
  std::vector<CpiModel> cpu(cores);

  bool any = true;
  while (any) {
    any = false;
    for (std::uint32_t c = 0; c < cores; ++c) {
      if (cursor[c] >= per_core[c].size()) continue;
      any = true;
      Access a = per_core[c][cursor[c]++];
      // Per-process physical slot for user addresses.
      if (a.mode == Mode::User) a.addr += kAppSlotStride * c;

      const Cycle now = cpu[c].now();
      SetAssocCache& l1 = a.is_ifetch() ? fe[c].l1i : fe[c].l1d;
      const Addr line = line_addr(a.addr);
      const AccessResult r = l1.access(line, a.type, a.mode, now);

      Cycle stall = 0;
      if (!r.hit) {
        const L2Result l2r = l2.access(line, AccessType::Read, a.mode, c, now);
        if (r.evicted_valid && r.victim_dirty) {
          l2.writeback(r.victim_line, r.victim_owner, c, now);
        }
        if (!a.is_write()) stall = kL1HitLatency + l2r.latency;
      }
      cpu[c].retire(stall);
    }
  }

  for (std::uint32_t c = 0; c < cores; ++c) {
    CoreResult cr;
    cr.workload = per_core[c].name();
    cr.records = cpu[c].records();
    cr.cycles = cpu[c].now();
    cr.l1i = fe[c].l1i.stats();
    cr.l1d = fe[c].l1d.stats();
    res.makespan = std::max(res.makespan, cr.cycles);
    res.cores.push_back(std::move(cr));
  }

  l2.finalize(res.makespan);
  res.l2 = l2.aggregate_stats();
  res.l2_energy = l2.energy();
  res.l2_avg_enabled_bytes = l2.avg_enabled_bytes();
  return res;
}

MulticoreResult simulate_multicore(const std::vector<Trace>& per_core,
                                   std::unique_ptr<MulticoreL2Interface> l2) {
  return simulate_multicore(per_core, *l2);
}

}  // namespace mobcache
