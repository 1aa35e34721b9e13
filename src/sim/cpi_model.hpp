#pragma once
/// \file cpi_model.hpp
/// In-order-core timing model.
///
/// The simulated core is a single-issue in-order mobile core (Cortex-A15 /
/// Krait class for 2015). Every trace record — an instruction fetch or the
/// memory op of an instruction — costs one base cycle; memory stalls from
/// the hierarchy add on top:
///
///   cycles = records · kBaseCpi + Σ stalls
///
/// Execution-time comparisons between schemes are ratios of these cycle
/// counts, which is exactly how the paper reports "performance loss".

#include <cstdint>

#include "common/types.hpp"

namespace mobcache {

/// Cycles per record before memory stalls. 2.0 models an in-order mobile
/// core (IPC ≈ 0.5 on interactive code: branches, dependences, front-end
/// bubbles) — the regime in which L2 leakage dominates L2 energy.
inline constexpr double kBaseCpi = 2.0;

class CpiModel {
 public:
  /// The clock after `records` retired records and `stalls` stall cycles.
  /// The index replay (sim/batch.cpp) rebuilds each design's per-point
  /// clock with it, so both agree bit for bit.
  static Cycle clock(std::uint64_t records, Cycle stalls) {
    return static_cast<Cycle>(static_cast<double>(records) * kBaseCpi) +
           stalls;
  }

  /// Cycles per record; degenerate (0) for an empty run.
  static double cpi_of(Cycle cycles, std::uint64_t records) {
    return records == 0 ? 0.0
                        : static_cast<double>(cycles) /
                              static_cast<double>(records);
  }

  /// Advances time by one record plus its stall; returns the new now.
  Cycle retire(Cycle stall) {
    ++records_;
    stall_cycles_ += stall;
    return now();
  }

  Cycle now() const { return clock(records_, stall_cycles_); }

  std::uint64_t records() const { return records_; }
  Cycle stall_cycles() const { return stall_cycles_; }

  double cpi() const { return cpi_of(now(), records_); }

 private:
  std::uint64_t records_ = 0;
  Cycle stall_cycles_ = 0;
};

}  // namespace mobcache
