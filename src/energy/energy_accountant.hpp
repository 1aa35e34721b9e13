#pragma once
/// \file energy_accountant.hpp
/// Event-based energy bookkeeping for one L2 organization.
///
/// The accountant converts cache events (reads, fills, scrubs, DRAM traffic)
/// plus elapsed time × enabled capacity into the five-way breakdown the
/// paper's energy figures use.

#include <cstdint>

#include "common/types.hpp"
#include "energy/technology.hpp"

namespace mobcache {

/// Energy totals in nanojoules.
struct EnergyBreakdown {
  double leakage_nj = 0.0;   ///< static energy of the (enabled) arrays
  double read_nj = 0.0;      ///< array reads (hits and miss probes)
  double write_nj = 0.0;     ///< array writes (fills, store hits)
  double refresh_nj = 0.0;   ///< STT-RAM scrub rewrites + expiry writebacks
  double dram_nj = 0.0;      ///< off-chip traffic caused by this design
  double ecc_nj = 0.0;       ///< ECC correction work (zero when fault-free)

  double total_nj() const {
    return leakage_nj + read_nj + write_nj + refresh_nj + dram_nj + ecc_nj;
  }
  /// On-chip cache energy only (the quantity the paper's "cache energy
  /// consumption" results normalize).
  double cache_nj() const {
    return leakage_nj + read_nj + write_nj + refresh_nj + ecc_nj;
  }

  /// The energies' one field list, in result-store record order: calls
  /// f(FieldName{prefix, name}, e.field...) for each energy, over the same
  /// field of every `e` (see CacheStats::visit).
  template <typename F, typename... E>
  static void visit(F&& f, const char* prefix, E&... e) {
    f(FieldName{prefix, "leakage_nj"}, e.leakage_nj...);
    f(FieldName{prefix, "read_nj"}, e.read_nj...);
    f(FieldName{prefix, "write_nj"}, e.write_nj...);
    f(FieldName{prefix, "refresh_nj"}, e.refresh_nj...);
    f(FieldName{prefix, "dram_nj"}, e.dram_nj...);
    f(FieldName{prefix, "ecc_nj"}, e.ecc_nj...);
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& o) {
    visit([](FieldName, double& a, double b) { a += b; }, "", *this, o);
    return *this;
  }
};
// An energy added to EnergyBreakdown must be added to visit() too.
static_assert(sizeof(EnergyBreakdown) == 6 * sizeof(double));

/// Prices events into an EnergyBreakdown. Like TechParams, an accountant
/// keeps the technology configuration active when it was built: the DRAM
/// energy per line is read from technology() once, here, so a design built
/// inside a ScopedTechnology keeps pricing from that config after the scope
/// closes, and the per-miss path does no thread-local read.
class EnergyAccountant {
 public:
  EnergyAccountant() : dram_nj_(technology().dram_access_nj) {}

  void add_read(const TechParams& t) { e_.read_nj += t.read_energy_nj; }
  void add_write(const TechParams& t) { e_.write_nj += t.write_energy_nj; }
  void add_refresh(const TechParams& t, std::uint64_t count = 1) {
    e_.refresh_nj += t.write_energy_nj * static_cast<double>(count);
  }
  /// DRAM line transfers (misses, writebacks, expiry scrub-writebacks).
  void add_dram(std::uint64_t count = 1) {
    e_.dram_nj += dram_nj_ * static_cast<double>(count);
  }
  /// Static energy for `cycles` of a segment with `enabled` fraction of its
  /// arrays powered (way gating).
  void add_leakage(const TechParams& t, Cycle cycles, double enabled = 1.0) {
    e_.leakage_nj += t.leakage_nj(cycles, enabled);
  }
  /// One ECC correction pass (fault subsystem; see EccModel).
  void add_ecc(double nj) { e_.ecc_nj += nj; }

  const EnergyBreakdown& breakdown() const { return e_; }
  void reset() { e_ = EnergyBreakdown{}; }

 private:
  EnergyBreakdown e_;
  double dram_nj_;  ///< DRAM energy per line transfer
};

}  // namespace mobcache
