#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "obs/telemetry.hpp"
#include "trace/trace_stream.hpp"

namespace mobcache {

namespace {

/// Trace-cadence sampler for schemes without an internal epoch notion: every
/// `interval` trace records it snapshots L2 aggregate/energy deltas plus
/// whatever the scheme reports via fill_sample(). Pure reader — it never
/// touches sim state, preserving bit-exact results.
class IntervalSampler {
 public:
  IntervalSampler(Telemetry* tel, const L2Interface& l2)
      : tel_(tel),
        l2_(l2),
        interval_(tel != nullptr ? tel->sample_interval() : 0) {}

  void tick(Cycle now) {
    if (interval_ == 0 || ++records_ < interval_) return;
    records_ = 0;
    const CacheStats cur = l2_.aggregate_stats();
    EpochSample s;
    s.epoch = epoch_++;
    s.cycle = now;
    s.accesses = cur.total_accesses() - last_accesses_;
    s.misses = cur.total_misses() - last_misses_;
    l2_.fill_sample(s);
    const EnergyBreakdown d = l2_.energy() - last_energy_;
    s.refresh_nj = d.refresh_nj;
    s.leakage_nj = d.leakage_nj;
    tel_->record(s);
    last_accesses_ = cur.total_accesses();
    last_misses_ = cur.total_misses();
    last_energy_ = l2_.energy();
  }

 private:
  Telemetry* tel_;
  const L2Interface& l2_;
  std::uint64_t interval_;
  std::uint64_t records_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t last_accesses_ = 0;
  std::uint64_t last_misses_ = 0;
  EnergyBreakdown last_energy_;
};

/// One simulation over any chunk provider. `next_chunk()` returns the next
/// span of records (empty = end of trace); the materialized overload feeds
/// kCancelPollStride-sized subspans of the trace vector (zero copy) and the
/// streaming overload whatever its generator produces. Supervision is
/// polled between chunks — for the materialized path that is the exact
/// cadence (and the exact poll positions) of the pre-streaming demand loop,
/// and polls are pure checks, so SimResults are bit-identical across chunk
/// geometries (tests/test_trace_stream.cpp pins streaming vs materialized
/// for every scheme).
template <typename NextChunk>
SimResult simulate_chunked(const std::string& workload, NextChunk&& next_chunk,
                           L2Interface& l2, const SimOptions& opts) {
  SimResult res;
  res.workload = workload;
  res.scheme = l2.describe();
  res.l2_capacity_bytes = l2.capacity_bytes();

  // Observer order: any the caller added to the design come first, then the
  // telemetry bridge, then the hierarchy's inclusion observer (appended in
  // its constructor below).
  if (opts.telemetry != nullptr) {
    opts.telemetry->set_context(workload, res.scheme);
    l2.attach_telemetry(opts.telemetry);
    Telemetry* tel = opts.telemetry;
    l2.add_eviction_observer(
        [tel](const EvictionEvent& e) { tel->record(e); });
  }

  MemoryHierarchy hier(opts.hierarchy, l2);
  CpiModel cpu(opts.timing);

  // Cancellation/deadline supervision stays out of the per-record path:
  // the demand loops below run chunk by chunk (one chunk ≈ one
  // kCancelPollStride block) and only the chunk boundary polls the token /
  // the clock. With the default-off deadline that is one relaxed atomic
  // load per ~65k records — the BENCH_micro gate sees no inner-loop change
  // at all.
  const PointSupervisor sup(opts);

  // Demand loop, split once up front: the plain loop carries no sampler
  // call and no disabled-telemetry branch per record; the instrumented loop
  // is the same retire sequence plus the trace-cadence sampler tick. Both
  // produce bit-identical SimResults (the sampler is a pure reader) —
  // tests/test_kernel_equiv.cpp pins this.
  Cycle now = 0;
  bool first = true;
  if (opts.telemetry != nullptr && opts.telemetry->sample_interval() != 0) {
    IntervalSampler sampler(opts.telemetry, l2);
    for (;;) {
      const std::span<const Access> chunk = next_chunk();
      if (chunk.empty()) break;
      if (!first) sup.poll(res.workload, res.scheme);
      first = false;
      for (const Access& a : chunk) {
        now = cpu.retire(hier.access(a, now));
        sampler.tick(now);
      }
    }
  } else {
    for (;;) {
      const std::span<const Access> chunk = next_chunk();
      if (chunk.empty()) break;
      if (!first) sup.poll(res.workload, res.scheme);
      first = false;
      for (const Access& a : chunk) {
        now = cpu.retire(hier.access(a, now));
      }
    }
  }
  hier.finalize(now);
  if (opts.telemetry != nullptr) l2.attach_telemetry(nullptr);

  res.records = cpu.records();
  res.cycles = cpu.now();
  res.cpi = cpu.cpi();
  res.l1i = hier.l1i_stats();
  res.l1d = hier.l1d_stats();
  res.l2 = hier.l2().aggregate_stats();
  res.l2_energy = hier.l2().energy();
  res.l1_energy_nj = hier.l1_energy_nj();
  res.l2_avg_enabled_bytes = hier.l2().avg_enabled_bytes();
  res.l2_quarantined_ways = hier.l2().quarantined_ways();
  res.stall_l2_hit_cycles = hier.stall_l2_hit_cycles();
  res.stall_l2_miss_cycles = hier.stall_l2_miss_cycles();
  res.prefetches_issued = hier.prefetches_issued();
  return res;
}

}  // namespace

PointSupervisor::PointSupervisor(const SimOptions& opts)
    : cancel_(opts.cancel != nullptr ? *opts.cancel : global_cancel_token()),
      deadline_ms_(opts.point_deadline_ms),
      deadline_(Clock::now() +
                std::chrono::milliseconds(opts.point_deadline_ms)) {}

void PointSupervisor::poll(const std::string& workload,
                           const std::string& scheme) const {
  if (cancel_.cancel_requested()) {
    try {
      cancel_.check();
    } catch (SimError& e) {
      e.with_workload(workload).with_scheme(scheme);
      throw;
    }
  }
  if (deadline_ms_ != 0 && Clock::now() >= deadline_) {
    DeadlineExceeded err("point exceeded deadline of " +
                         std::to_string(deadline_ms_) + " ms");
    err.with_workload(workload).with_scheme(scheme);
    throw err;
  }
}

SimResult simulate(const Trace& trace, L2Interface& l2,
                   const SimOptions& opts) {
  const std::vector<Access>& accesses = trace.accesses();
  const std::size_t total = accesses.size();
  std::size_t i = 0;
  auto next_chunk = [&]() -> std::span<const Access> {
    if (i >= total) return {};
    const std::size_t end = std::min<std::size_t>(
        total, i + static_cast<std::size_t>(kCancelPollStride));
    const std::span<const Access> chunk(accesses.data() + i, end - i);
    i = end;
    return chunk;
  };
  return simulate_chunked(trace.name(), next_chunk, l2, opts);
}

SimResult simulate(const Trace& trace, std::unique_ptr<L2Interface> l2,
                   const SimOptions& opts) {
  return simulate(trace, *l2, opts);
}

SimResult simulate(TraceStream& stream, L2Interface& l2,
                   const SimOptions& opts) {
  return simulate_chunked(stream.name(),
                          [&stream] { return stream.next_chunk(); }, l2, opts);
}

}  // namespace mobcache
