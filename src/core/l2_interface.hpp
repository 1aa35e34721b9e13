#pragma once
/// \file l2_interface.hpp
/// Abstract L2 organization — the seam where the paper's designs plug into
/// the memory hierarchy.
///
/// Every scheme (shared baseline, static partitioned SRAM, multi-retention
/// STT-RAM, dynamic partitioned) implements this interface. The hierarchy
/// calls access()/writeback() and uses the returned latency for the timing
/// model; each design keeps its own energy accounting, including the DRAM
/// traffic it causes (misses, writebacks, expiry scrubs).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cache/set_assoc_cache.hpp"
#include "energy/energy_accountant.hpp"
#include "obs/events.hpp"

namespace mobcache {

class Telemetry;

/// Result of one L2 access as seen by the core.
struct L2Result {
  bool hit = false;
  /// Cycles until the requested line is available to the L1 (array latency
  /// + any bank stall, + DRAM on miss). The hierarchy adds this to loads
  /// and instruction fetches; stores are posted.
  Cycle latency = 0;
};

class L2Interface {
 public:
  virtual ~L2Interface() = default;

  /// Demand access from an L1 miss. `line` is line-aligned.
  virtual L2Result access(Addr line, AccessType type, Mode mode,
                          Cycle now) = 0;

  /// Dirty line cast out of an L1. `owner` is the mode that produced the
  /// data. Posted (no latency reported).
  virtual void writeback(Addr line, Mode owner, Cycle now) = 0;

  /// Installs a prefetched line on behalf of `mode`. Off the critical path
  /// (no latency); energy and pollution are fully accounted.
  virtual void prefetch(Addr line, Mode mode, Cycle now) = 0;

  /// Settles time-integrated costs (leakage, outstanding refresh) through
  /// `end`. Must be called exactly once, after the last access.
  virtual void finalize(Cycle end) = 0;

  /// Energy attributable to this L2 design (arrays + its DRAM traffic).
  virtual const EnergyBreakdown& energy() const = 0;

  /// Merged array counters (both segments for partitioned designs).
  virtual CacheStats aggregate_stats() const = 0;

  /// Nominal built capacity in bytes (what the design taped out).
  virtual std::uint64_t capacity_bytes() const = 0;

  /// Time-averaged powered capacity in bytes (≠ nominal when way gating is
  /// active). Only meaningful after finalize().
  virtual double avg_enabled_bytes() const {
    return static_cast<double>(capacity_bytes());
  }

  /// Ways permanently disabled by the fault-repair controller over the run
  /// (summed across segments). Zero for unfaulted designs.
  virtual std::uint32_t quarantined_ways() const { return 0; }

  /// Human-readable one-line description for reports.
  virtual std::string describe() const = 0;

  /// Appends a block-eviction observer to the underlying arrays (used by
  /// the lifetime study; multicast).
  virtual void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) = 0;

  /// Attaches a telemetry session (obs/telemetry.hpp) the design reports
  /// structured events and epoch samples into; nullptr detaches. Designs
  /// guard every report with one null-check, so a detached run stays on the
  /// fast path.
  void attach_telemetry(Telemetry* t) { telemetry_ = t; }
  Telemetry* telemetry() const { return telemetry_; }

  /// Fills the design-specific fields of an interval sample taken by the
  /// simulator's time-series sampler (way allocation, drowsy population,
  /// powered capacity). The default reports the full built capacity.
  virtual void fill_sample(EpochSample& s) const {
    s.enabled_bytes = static_cast<double>(capacity_bytes());
  }

 protected:
  Telemetry* telemetry_ = nullptr;
};

}  // namespace mobcache
