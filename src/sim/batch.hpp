#pragma once
/// \file batch.hpp
/// Single-pass multi-config replay: run the L1 front end ONCE per trace,
/// then drive any number of independent L2 designs from what it captured.
///
/// Why this is sound: with the default hierarchy (non-inclusive L2, no
/// prefetcher, no telemetry, no eviction observer) the L1 arrays never see
/// anything the L2 produced — the only L2→L1 channel is the inclusion
/// back-invalidation observer, and the replacement policies (common to every
/// lane) advance on their own internal tick, never on the cycle clock. The
/// L1 hit/miss sequence, victim choices, writeback lines and stat counters
/// are therefore *identical across all L2 configurations*, and a sweep that
/// re-simulates them per point is paying (points ×) for one shared
/// computation. Both captures below run that shared computation through the
/// real MemoryHierarchy (the same code the per-point path executes, so L1
/// behaviour cannot drift):
///
///  - L1MissIndex — two bits per trace record plus the dirty-victim lines;
///    the replay reads each demand access back from the trace. The
///    ExperimentRunner replays its grid cells from it.
///  - DemandStream — one self-contained record per L2 demand access, for
///    replaying lanes without the trace (simulate_batch_lanes, the
///    benchmark's layer split).
///
/// Both replays share one core that rebuilds the CpiModel clock per design:
///
///   now = Cycle(double(record_index) * base_cpi) + stall_sum
///
/// which is bit-for-bit the value CpiModel::now() would have produced at
/// that access in a per-point run. The resulting SimResults are
/// byte-identical to simulate() — tests/test_batch.cpp pins this for every
/// scheme and for random configurations, and the ExperimentRunner keys them
/// into the same result store records (docs/SWEEP_ENGINE.md).

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace mobcache {

/// What the shared L1 pass over one trace fixes for every L2 design: the
/// L1 stat counters, the L1 dynamic energy and the timing constants.
/// Replaying any demand source on top of it gives the per-point SimResult.
struct L1Pass {
  std::string workload;
  std::uint64_t total_records = 0;  ///< trace length (== per-lane records)
  CacheStats l1i;
  CacheStats l1d;
  double l1_dynamic_nj = 0.0;  ///< L1 array energy, accumulated in trace order
  TechParams l1_tech;          ///< per-lane leakage is charged at the lane's end
  Cycle l1_hit_latency = 1;
  double base_cpi = 2.0;
};

/// The L2-visible residue of one trace + one L1 front end, in SoA layout:
/// one entry per L2 demand access (i.e. per L1 miss), self-contained so the
/// trace itself need not stay in memory. Building it costs one full L1
/// simulation; replaying it costs only the L2 work, which is what makes an
/// N-lane sweep cheaper than N full runs. About 25 B per demand access —
/// the runner replays from the far smaller L1MissIndex instead.
struct DemandStream : L1Pass {
  /// Demand-record flag bits (flags[e]).
  static constexpr std::uint8_t kKernelMode = 1u << 0;  ///< Mode::Kernel
  static constexpr std::uint8_t kWrite = 1u << 1;       ///< store miss (posted)
  static constexpr std::uint8_t kWriteback = 1u << 2;   ///< dirty L1 victim follows
  static constexpr std::uint8_t kWbKernel = 1u << 3;    ///< victim owner mode

  std::vector<std::uint64_t> record;  ///< trace-record index of the access
  std::vector<Addr> line;             ///< line-aligned demand address
  std::vector<std::uint8_t> flags;    ///< kKernelMode | kWrite | kWriteback...
  std::vector<Addr> wb_line;          ///< victim line when kWriteback (else 0)

  std::size_t size() const { return line.size(); }
};

/// The shared L1 pass over a trace that stays in memory, kept as two bits
/// per trace record plus the dirty-victim lines. A demand access's line,
/// mode and store flag are read back from its trace record
/// (`line_addr(a.addr)`, `a.mode`, `a.is_write()` — exactly what
/// MemoryHierarchy::access hands the L2), so the index costs 0.9–1.9 B per
/// record on the interactive apps (1.4 on average) against DemandStream's
/// ~25 B per demand access. The ExperimentRunner builds one per trace per grid call and
/// replays every design cell of that trace from it (docs/SWEEP_ENGINE.md).
struct L1MissIndex : L1Pass {
  /// Victims per block: 8 Ki lines, 64 KiB.
  static constexpr unsigned kVictimBlockBits = 13;

  std::vector<std::uint64_t> miss;  ///< bit i: record i missed L1 (an L2 demand access)
  std::vector<std::uint64_t> wb;    ///< bit i: that miss cast out a dirty L1 victim
  /// Victim lines in trace order, owner mode in bit 0 (set = Mode::Kernel;
  /// lines are 64-B aligned, so bit 0 is free). Fixed-size blocks: growing
  /// them never copies lines or leaves doubling slack behind, which keeps
  /// the peak memory of concurrent index builds at what the indexes hold.
  std::vector<std::vector<Addr>> victim_blocks;

  /// Victim k, in trace order.
  Addr victim(std::size_t k) const {
    return victim_blocks[k >> kVictimBlockBits]
                        [k & ((std::size_t{1} << kVictimBlockBits) - 1)];
  }
  void push_victim(Addr v);
  std::size_t victim_count() const;

  /// Heap bytes the index holds.
  std::size_t bytes() const;
};

/// True when `opts` is in the regime where the L1 front end is provably
/// lane-invariant: non-inclusive L2, prefetcher off and no telemetry
/// session. Everything else must take the per-point path (the
/// ExperimentRunner falls back automatically).
bool batch_eligible(const SimOptions& opts);

/// Runs the shared L1 pass for `trace` under `opts.hierarchy`/`opts.timing`
/// and returns the captured demand stream. Polls `opts.cancel` (or the
/// global token) at kCancelPollStride records, like simulate().
/// Precondition: batch_eligible(opts).
DemandStream build_demand_stream(const Trace& trace, const SimOptions& opts);

/// Runs the shared L1 pass for `trace` and returns its miss index. Polls
/// `sup` every kCancelPollStride records with workload context, like
/// simulate(). Precondition: batch_eligible(opts).
L1MissIndex build_l1_miss_index(const Trace& trace, const SimOptions& opts,
                                const PointSupervisor& sup);

/// Replays `index` into one fresh L2 design and returns exactly the
/// SimResult simulate(trace, l2, opts) would have produced for the options
/// the index was built under. Polls `sup` every kCancelPollStride records
/// with workload and scheme context, as simulate() does. Throws
/// std::invalid_argument when `index` was not built from `trace`.
SimResult replay_l1_miss_index(const Trace& trace, const L1MissIndex& index,
                               L2Interface& l2, const PointSupervisor& sup);

/// One lane's outcome: exactly one of result/error is set. Lane errors
/// (e.g. a design throwing mid-replay) are confined to their lane so a
/// keep-going sweep loses one point, not the batch; cancellation and
/// deadline expiry are whole-batch conditions and throw out of
/// simulate_batch_lanes itself.
struct BatchLaneOutcome {
  std::optional<SimResult> result;
  std::exception_ptr error;
  bool ok() const { return result.has_value(); }
};

/// Replays `stream` into every lane of `lanes` (non-owning; one fresh L2
/// design per lane) and returns per-lane SimResults byte-identical to what
/// simulate(trace, *lanes[i], opts) would have produced. The replay is
/// chunk-blocked: all lanes advance through one kCancelPollStride-sized
/// block of demand records before the next block starts, so supervision
/// (cancellation, and the per-point deadline reinterpreted per batch —
/// docs/SWEEP_ENGINE.md) is polled once per block like the per-point loop.
std::vector<BatchLaneOutcome> simulate_batch_lanes(
    const DemandStream& stream, const std::vector<L2Interface*>& lanes,
    const SimOptions& opts);

}  // namespace mobcache
