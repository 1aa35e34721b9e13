#pragma once
/// \file energy_accountant.hpp
/// Event-based energy bookkeeping for one L2 organization.
///
/// The accountant converts cache events (reads, fills, scrubs, DRAM traffic)
/// plus elapsed time × enabled capacity into the five-way breakdown the
/// paper's energy figures use.

#include <cstdint>

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

  EnergyBreakdown& operator+=(const EnergyBreakdown& o) {
    leakage_nj += o.leakage_nj;
    read_nj += o.read_nj;
    write_nj += o.write_nj;
    refresh_nj += o.refresh_nj;
    dram_nj += o.dram_nj;
    ecc_nj += o.ecc_nj;
    return *this;
  }
};

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
