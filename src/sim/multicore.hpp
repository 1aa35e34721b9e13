#pragma once
/// \file multicore.hpp
/// Multicore simulation driver: N cores, each with private L1I/L1D running
/// its own trace, sharing one L2 (future-work extension of the paper).
///
/// Interleaving model: cores retire records round-robin; each core keeps
/// its own cycle clock (base CPI + its stalls), and the shared L2 is probed
/// at the accessing core's local time. Core clocks of equal-length traces
/// stay within a few percent of each other, so the approximation error in
/// time-dependent L2 state (retention, epochs) is small; the makespan is
/// the slowest core's clock.
///
/// User address disambiguation: independent per-core traces reuse the same
/// virtual address layout, so the driver relocates each core's user
/// addresses into a private slot (as a per-process physical mapping would).

#include <memory>
#include <vector>

#include "core/multicore_l2.hpp"
#include "sim/cpi_model.hpp"
#include "sim/hierarchy.hpp"
#include "trace/trace.hpp"

namespace mobcache {

struct CoreResult {
  std::string workload;
  std::uint64_t records = 0;
  Cycle cycles = 0;
  CacheStats l1i;
  CacheStats l1d;
};

struct MulticoreResult {
  std::vector<CoreResult> cores;
  Cycle makespan = 0;  ///< slowest core's clock
  CacheStats l2;
  EnergyBreakdown l2_energy;
  std::uint64_t l2_capacity_bytes = 0;
  double l2_avg_enabled_bytes = 0.0;
  std::string scheme;

  double l2_miss_rate() const { return l2.miss_rate(); }
};

/// Runs one trace per core against the shared L2 (non-owning). Each core
/// has the default HierarchyConfig's L1I and L1D and no prefetcher. Traces
/// should be of comparable length (see interleaving model).
MulticoreResult simulate_multicore(const std::vector<Trace>& per_core,
                                   MulticoreL2Interface& l2);

/// Owning convenience overload; the design is destroyed on return.
MulticoreResult simulate_multicore(const std::vector<Trace>& per_core,
                                   std::unique_ptr<MulticoreL2Interface> l2);

}  // namespace mobcache
