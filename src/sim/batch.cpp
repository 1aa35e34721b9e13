#include "sim/batch.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/cancel.hpp"

namespace mobcache {

namespace {

/// Stub L2 the shared L1 pass runs against: answers every demand access as a
/// zero-latency hit (so the prefetcher-training branch never fires and no
/// stall feeds back into the clock — irrelevant anyway, because L1 outcomes
/// are clock-invariant) and reports each demand access and dirty-victim
/// writeback to `Sink`. A writeback always arrives inside the same
/// MemoryHierarchy::access() call as the demand access that displaced the
/// victim, so it belongs to the record whose demand access came just before.
template <typename Sink>
class RecorderL2 final : public L2Interface {
 public:
  explicit RecorderL2(Sink& sink) : sink_(sink) {}

  L2Result access(Addr line, AccessType /*type*/, Mode mode,
                  Cycle /*now*/) override {
    sink_.demand(line, mode);
    return {.hit = true, .latency = 0};
  }

  void writeback(Addr line, Mode owner, Cycle /*now*/) override {
    sink_.writeback(line, owner);
  }

  void prefetch(Addr /*line*/, Mode /*mode*/, Cycle /*now*/) override {}
  void finalize(Cycle /*end*/) override {}
  const EnergyBreakdown& energy() const override { return energy_; }
  CacheStats aggregate_stats() const override { return {}; }
  std::uint64_t capacity_bytes() const override { return 0; }
  std::string describe() const override { return "l1-demand-recorder"; }
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> /*obs*/) override {}

 private:
  Sink& sink_;
  EnergyBreakdown energy_;
};

/// Shared L1 pass over `trace`: fills `pass` and reports every L2 demand
/// access and dirty victim to `sink`, after `sink.begin(index, a)` names the
/// record being retired. Supervision polls every kCancelPollStride records,
/// at the positions of the simulate() loop.
template <typename Sink>
void run_l1_pass(const Trace& trace, const SimOptions& opts,
                 const PointSupervisor& sup, L1Pass& pass, Sink& sink) {
  pass.workload = trace.name();
  pass.l1_tech = make_sram(opts.hierarchy.l1i.size_bytes +
                           opts.hierarchy.l1d.size_bytes);

  RecorderL2<Sink> recorder(sink);
  MemoryHierarchy hier(opts.hierarchy, recorder);

  // The clock passed down is irrelevant to L1 outcomes (replacement state
  // advances on an internal tick; retention/fault hooks are L2-only), so the
  // pass runs at now = 0 — per-design clocks are rebuilt at replay time.
  const std::vector<Access>& records = trace.accesses();
  const std::size_t total = records.size();
  for (std::size_t begin = 0; begin < total; begin += kCancelPollStride) {
    if (begin != 0) sup.poll(pass.workload, /*scheme=*/{});
    const std::size_t end =
        std::min<std::size_t>(total, begin + kCancelPollStride);
    for (std::size_t i = begin; i < end; ++i) {
      sink.begin(i, records[i]);
      hier.access(records[i], /*now=*/0);
    }
  }
  pass.total_records = total;

  // Deliberately no hier.finalize(): finalize would fold L1 leakage (a
  // function of each design's end cycle) into l1_energy_nj. The pure dynamic
  // part captured here is design-invariant; leakage is charged per design.
  pass.l1i = hier.l1i_stats();
  pass.l1d = hier.l1d_stats();
  pass.l1_dynamic_nj = hier.l1_energy_nj();
}

/// Appends one DemandStream record per demand access.
struct StreamSink {
  DemandStream& s;
  std::uint64_t index = 0;
  bool write = false;

  void begin(std::uint64_t i, const Access& a) {
    index = i;
    write = a.is_write();  // stores are posted: no stall on replay
  }
  void demand(Addr line, Mode mode) {
    s.record.push_back(index);
    s.line.push_back(line);
    std::uint8_t f = 0;
    if (mode == Mode::Kernel) f |= DemandStream::kKernelMode;
    if (write) f |= DemandStream::kWrite;
    s.flags.push_back(f);
    s.wb_line.push_back(0);
  }
  void writeback(Addr line, Mode owner) {
    s.flags.back() |= DemandStream::kWriteback;
    if (owner == Mode::Kernel) s.flags.back() |= DemandStream::kWbKernel;
    s.wb_line.back() = line;
  }
};

/// Sets the miss/wb bits of the record being retired and appends victims.
struct IndexSink {
  static_assert(kLineSize % 2 == 0, "victim lines carry the owner in bit 0");

  L1MissIndex& x;
  std::uint64_t index = 0;

  void begin(std::uint64_t i, const Access& /*a*/) { index = i; }
  void demand(Addr /*line*/, Mode /*mode*/) {
    x.miss[index >> 6] |= std::uint64_t{1} << (index & 63);
  }
  void writeback(Addr line, Mode owner) {
    x.wb[index >> 6] |= std::uint64_t{1} << (index & 63);
    x.push_victim(line | (owner == Mode::Kernel ? 1u : 0u));
  }
};

Mode mode_of(bool kernel) { return kernel ? Mode::Kernel : Mode::User; }

/// One L2 design replayed on top of a shared L1 pass: the per-point
/// CpiModel clock and CPI stack, rebuilt from the demand accesses alone.
/// Both replays (simulate_batch_lanes and replay_l1_miss_index) drive their
/// designs through this class, so the clock, the stall split and the
/// SimResult assembly exist once.
class LaneReplay {
 public:
  LaneReplay(const L1Pass& pass, L2Interface& l2)
      : pass_(&pass),
        l2_(&l2),
        scheme_(l2.describe()),  // captured where simulate() reads them
        capacity_(l2.capacity_bytes()) {}

  const std::string& scheme() const { return scheme_; }

  /// Issues the L2 demand access of an L1 miss at trace record `record`,
  /// as MemoryHierarchy::access does, and returns the cycle it went out at:
  /// the CpiModel clock of a per-point run (`record` accesses retired, plus
  /// this design's stalls). A dirty victim's writeback goes out at the
  /// same cycle; stores are posted and do not stall.
  Cycle demand(std::uint64_t record, Addr line, Mode mode, bool is_write) {
    const Cycle now = CpiModel::clock(record, stall_sum_);
    const L2Result r = l2_->access(line, AccessType::Read, mode, now);
    if (!is_write) {
      const Cycle stall = kL1HitLatency + r.latency;
      (r.hit ? stall_hit_ : stall_miss_) += stall;
      stall_sum_ += stall;
    }
    return now;
  }

  void writeback(Addr line, Mode owner, Cycle now) {
    l2_->writeback(line, owner, now);
  }

  /// Finalizes the design at its end cycle and assembles the SimResult.
  SimResult finish() {
    const std::uint64_t records = pass_->total_records;
    const Cycle end_cycle = CpiModel::clock(records, stall_sum_);
    l2_->finalize(end_cycle);

    SimResult res;
    res.workload = pass_->workload;
    res.scheme = scheme_;
    res.l2_capacity_bytes = capacity_;
    res.records = records;
    res.cycles = end_cycle;
    res.cpi = CpiModel::cpi_of(end_cycle, records);
    res.l1i = pass_->l1i;
    res.l1d = pass_->l1d;
    read_l2_fields(*l2_, res);
    res.l1_energy_nj =
        pass_->l1_dynamic_nj + pass_->l1_tech.leakage_nj(end_cycle);
    res.stall_l2_hit_cycles = stall_hit_;
    res.stall_l2_miss_cycles = stall_miss_;
    res.prefetches_issued = 0;  // batch_eligible ⇒ prefetcher disabled
    return res;
  }

 private:
  const L1Pass* pass_;
  L2Interface* l2_;
  std::string scheme_;
  std::uint64_t capacity_;
  Cycle stall_sum_ = 0;
  Cycle stall_hit_ = 0;
  Cycle stall_miss_ = 0;
};

}  // namespace

bool batch_eligible(const SimOptions& opts) {
  // The L1 front end is lane-invariant only when nothing flows back from the
  // L2 (no inclusion back-invalidation) and no per-lane side channel
  // (prefetcher training, telemetry) is attached.
  return !opts.hierarchy.inclusive_l2 && !opts.hierarchy.prefetch &&
         opts.telemetry == nullptr;
}

void L1MissIndex::push_victim(Addr v) {
  if (victim_blocks.empty() ||
      victim_blocks.back().size() == victim_blocks.back().capacity()) {
    victim_blocks.emplace_back().reserve(std::size_t{1} << kVictimBlockBits);
  }
  victim_blocks.back().push_back(v);
}

std::size_t L1MissIndex::victim_count() const {
  return victim_blocks.empty()
             ? 0
             : ((victim_blocks.size() - 1) << kVictimBlockBits) +
                   victim_blocks.back().size();
}

std::size_t L1MissIndex::bytes() const {
  std::size_t n = (miss.capacity() + wb.capacity()) * sizeof(std::uint64_t) +
                  victim_blocks.capacity() * sizeof(std::vector<Addr>);
  for (const std::vector<Addr>& b : victim_blocks)
    n += b.capacity() * sizeof(Addr);
  return n;
}

DemandStream build_demand_stream(const Trace& trace, const SimOptions& opts) {
  DemandStream s;
  StreamSink sink{s};
  run_l1_pass(trace, opts, PointSupervisor(opts), s, sink);
  return s;
}

L1MissIndex build_l1_miss_index(const Trace& trace, const SimOptions& opts,
                                const PointSupervisor& sup) {
  L1MissIndex x;
  const std::size_t words = (trace.size() + 63) / 64;
  x.miss.assign(words, 0);
  x.wb.assign(words, 0);
  IndexSink sink{x};
  run_l1_pass(trace, opts, sup, x, sink);
  return x;
}

SimResult replay_l1_miss_index(const Trace& trace, const L1MissIndex& index,
                               L2Interface& l2, const PointSupervisor& sup) {
  if (trace.size() != index.total_records || trace.name() != index.workload) {
    throw std::invalid_argument("replay_l1_miss_index: the index of '" +
                                index.workload + "' does not match trace '" +
                                trace.name() + "'");
  }
  static_assert(kCancelPollStride % 64 == 0,
                "poll blocks must cover whole bitmap words");
  LaneReplay lane(index, l2);
  const Access* records = trace.accesses().data();
  const std::uint64_t total = index.total_records;
  std::size_t victim = 0;
  // Same blocks, and so the same poll positions, as the simulate() loop.
  for (std::uint64_t begin = 0; begin < total; begin += kCancelPollStride) {
    if (begin != 0) sup.poll(index.workload, lane.scheme());
    const std::uint64_t end = std::min(total, begin + kCancelPollStride);
    for (std::uint64_t w = begin >> 6; w < (end + 63) >> 6; ++w) {
      std::uint64_t pending = index.miss[w];
      const std::uint64_t dirty = index.wb[w];
      while (pending != 0) {
        const int b = std::countr_zero(pending);
        pending &= pending - 1;
        const std::uint64_t i = (w << 6) | static_cast<std::uint64_t>(b);
        const Access& a = records[i];
        const Cycle now =
            lane.demand(i, line_addr(a.addr), a.mode, a.is_write());
        if (((dirty >> b) & 1u) != 0) {
          const Addr v = index.victim(victim++);
          lane.writeback(v & ~Addr{1}, mode_of((v & 1u) != 0), now);
        }
      }
    }
  }
  return lane.finish();
}

std::vector<BatchLaneOutcome> simulate_batch_lanes(
    const DemandStream& stream, const std::vector<L2Interface*>& lanes,
    const SimOptions& opts) {
  const std::size_t n = lanes.size();
  std::vector<BatchLaneOutcome> out(n);
  std::vector<LaneReplay> replay;
  replay.reserve(n);
  for (L2Interface* l2 : lanes) replay.emplace_back(stream, *l2);
  std::vector<char> dead(n, 0);

  const PointSupervisor sup(opts);

  auto lane_failed = [&](std::size_t l) {
    out[l].error = std::current_exception();
    dead[l] = 1;
  };

  // Chunk-blocked, lane-major replay: every live lane advances through one
  // supervision-stride block of demand records before the next block starts.
  // Lane-major keeps each lane's tag arrays hot across the block; the block
  // boundary polls cancellation/deadline at the simulate() cadence. A lane
  // that throws is confined to its own outcome slot; cancellation and
  // deadline expiry abort the whole batch from the poll below.
  const std::size_t entries = stream.size();
  std::size_t begin = 0;
  while (begin < entries) {
    const std::size_t end = std::min<std::size_t>(
        entries, begin + static_cast<std::size_t>(kCancelPollStride));
    for (std::size_t l = 0; l < n; ++l) {
      if (dead[l]) continue;
      LaneReplay& lane = replay[l];
      try {
        for (std::size_t e = begin; e < end; ++e) {
          const std::uint8_t f = stream.flags[e];
          const Cycle now = lane.demand(
              stream.record[e], stream.line[e],
              mode_of((f & DemandStream::kKernelMode) != 0),
              (f & DemandStream::kWrite) != 0);
          if ((f & DemandStream::kWriteback) != 0) {
            lane.writeback(stream.wb_line[e],
                           mode_of((f & DemandStream::kWbKernel) != 0), now);
          }
        }
      } catch (...) {
        lane_failed(l);
      }
    }
    begin = end;
    if (begin < entries) sup.poll(stream.workload, /*scheme=*/{});
  }

  for (std::size_t l = 0; l < n; ++l) {
    if (dead[l]) continue;
    try {
      out[l].result = replay[l].finish();
    } catch (...) {
      lane_failed(l);
    }
  }
  return out;
}

}  // namespace mobcache
