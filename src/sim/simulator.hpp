#pragma once
/// \file simulator.hpp
/// Drives one trace through one hierarchy and collects everything the
/// evaluation needs.

#include <chrono>
#include <memory>
#include <string>

#include "energy/energy_accountant.hpp"
#include "sim/cpi_model.hpp"
#include "sim/hierarchy.hpp"
#include "trace/trace.hpp"

namespace mobcache {

struct SimResult {
  std::string workload;
  std::string scheme;

  std::uint64_t records = 0;
  Cycle cycles = 0;
  double cpi = 0.0;

  CacheStats l1i;
  CacheStats l1d;
  CacheStats l2;
  EnergyBreakdown l2_energy;
  double l1_energy_nj = 0.0;

  std::uint64_t l2_capacity_bytes = 0;
  double l2_avg_enabled_bytes = 0.0;
  /// Ways permanently disabled by fault repair (0 on fault-free runs).
  std::uint32_t l2_quarantined_ways = 0;

  /// CPI stack: stall cycles split by where the data came from.
  Cycle stall_l2_hit_cycles = 0;
  Cycle stall_l2_miss_cycles = 0;
  std::uint64_t prefetches_issued = 0;

  /// Energy-delay product of the L2 subsystem (nJ · cycles); compare as
  /// ratios between schemes.
  double edp() const {
    return l2_energy.cache_nj() * static_cast<double>(cycles);
  }

  double l2_miss_rate() const { return l2.miss_rate(); }
  double l2_kernel_fraction() const { return l2.kernel_access_fraction(); }
};

class Telemetry;
class CancelToken;

struct SimOptions {
  HierarchyConfig hierarchy;
  TimingParams timing;
  /// Wall-clock budget for this one run in milliseconds; 0 disables the
  /// deadline. Checked cooperatively at the cancellation-poll stride; on
  /// expiry the run throws DeadlineExceeded naming the workload and scheme.
  std::uint64_t point_deadline_ms = 0;
  /// Cancellation token the demand loop polls once per kCancelPollStride
  /// records (common/cancel.hpp). Null means the process-wide
  /// global_cancel_token() — the one SIGINT/SIGTERM flips — so every run is
  /// interruptible by default at one relaxed atomic load per ~65k accesses.
  const CancelToken* cancel = nullptr;
  /// Optional observability session (obs/telemetry.hpp). When set, the L2 is
  /// attached (scheme-internal events flow to it), evictions are bridged to
  /// the hub, and — if the session's sample_interval is nonzero — an
  /// EpochSample is pushed every that-many trace records. All instrumentation
  /// is read-only: SimResult is bit-identical with or without a session.
  Telemetry* telemetry = nullptr;
};

/// Cooperative supervision of one simulation point: the cancellation token
/// (`opts.cancel`, else the global token) and the per-point wall-clock
/// deadline, whose clock starts at construction. Simulation loops call
/// poll() between kCancelPollStride-record chunks, never per access.
class PointSupervisor {
 public:
  explicit PointSupervisor(const SimOptions& opts);

  /// Throws CancelledError when cancellation was requested, or
  /// DeadlineExceeded once the deadline has passed; either carries
  /// `workload` and `scheme` (empty = not reported) as error context.
  void poll(const std::string& workload, const std::string& scheme) const;

 private:
  using Clock = std::chrono::steady_clock;
  const CancelToken& cancel_;
  std::uint64_t deadline_ms_;
  Clock::time_point deadline_;
};

/// Runs `trace` against the given L2 design (non-owning: the caller keeps
/// the design and can inspect it after the run).
SimResult simulate(const Trace& trace, L2Interface& l2,
                   const SimOptions& opts = {});

/// Owning convenience overload; the design is destroyed on return.
SimResult simulate(const Trace& trace, std::unique_ptr<L2Interface> l2,
                   const SimOptions& opts = {});

class TraceStream;

/// Streaming overload: consumes `stream` chunk by chunk, so only one chunk
/// of records is live at a time — peak memory is O(chunk), independent of
/// session length. Byte-identical to materializing the stream and calling
/// the Trace overload (supervision polls move to chunk boundaries but are
/// pure checks); tests/test_trace_stream.cpp pins this for all schemes.
/// The stream is consumed (call reset() to reuse it).
SimResult simulate(TraceStream& stream, L2Interface& l2,
                   const SimOptions& opts = {});

}  // namespace mobcache
