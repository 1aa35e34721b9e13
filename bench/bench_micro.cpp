/// \file bench_micro.cpp
/// google-benchmark microbenchmarks of the simulation substrate itself —
/// regression guards for the simulator's own throughput (the evaluation
/// sweeps run hundreds of millions of cache accesses).
///
/// Three entry modes:
///  * default: the usual google-benchmark CLI over every BENCHMARK below;
///  * --kernel-report: a self-timed access-kernel comparison (fast vs.
///    reference dispatch, see docs/PERFORMANCE.md) that writes
///    BENCH_micro.json for CI's perf-smoke gate. Deterministic stat
///    checksums land under "results"; throughputs and speedups land under
///    "timing/" keys, which scripts/check_bench.py treats with a relative
///    tolerance instead of exact equality.
///  * --sweep-report: a self-timed batched-vs-per-point sweep comparison
///    over a frozen 12-lane geometry grid (docs/SWEEP_ENGINE.md) that
///    verifies byte-identical SimResults in-binary and writes the
///    timing/sweep/* keys CI's sweep-gate enforces ≥5x points/s on
///    (--min-sweep-speedup=X).
/// The two report modes are mutually exclusive.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "cache/shadow_monitor.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "exp/result_store.hpp"
#include "obs/telemetry.hpp"
#include "sim/batch.hpp"
#include "sim/multicore.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_compress.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

void BM_CacheHit(benchmark::State& state) {
  CacheConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cfg.assoc = static_cast<std::uint32_t>(state.range(0));
  SetAssocCache c(cfg);
  c.access(0, AccessType::Read, Mode::User, 0);
  Cycle now = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(0, AccessType::Read, Mode::User, now++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit)->Arg(8)->Arg(16);

void BM_CacheMissStream(benchmark::State& state) {
  CacheConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cfg.assoc = 16;
  SetAssocCache c(cfg);
  Cycle now = 0;
  Addr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        c.access(a, AccessType::Read, Mode::User, ++now));
    a += kLineSize;  // pure streaming: every access misses after warmup
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissStream);

void BM_CacheRandomMix(benchmark::State& state) {
  CacheConfig cfg;
  cfg.size_bytes = 2ull << 20;
  cfg.assoc = 16;
  cfg.repl = static_cast<ReplKind>(state.range(0));
  SetAssocCache c(cfg, 3);
  Rng rng(5);
  Cycle now = 0;
  for (auto _ : state) {
    const Addr a = rng.below(100'000) * kLineSize;
    benchmark::DoNotOptimize(c.access(
        a, rng.chance(0.3) ? AccessType::Write : AccessType::Read, Mode::User,
        ++now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheRandomMix)
    ->Arg(static_cast<int>(ReplKind::Lru))
    ->Arg(static_cast<int>(ReplKind::Plru))
    ->Arg(static_cast<int>(ReplKind::Srrip));

// ---- access-kernel microbenchmarks (fast vs reference dispatch) ----------
//
// Each case pre-generates its operation stream once, so the timed loop is
// pure cache-array work. Arg(0) selects the kernel: 0 = fast (specialized),
// 1 = reference (virtual replacement calls, all feature branches). The
// fast/reference ratio is the devirtualization payoff the perf-smoke CI job
// gates on (via --kernel-report below).

/// One pre-generated operation for the kernel benches.
struct KernelOp {
  Addr line;
  AccessType type;
};

/// Frozen replica of the pre-overhaul SetAssocCache hot path: one ~64-byte
/// AoS record per block, virtual replacement calls, every feature branch
/// tested at runtime. This is the baseline the perf gate measures the SoA +
/// devirtualized kernels against (docs/PERFORMANCE.md); it must keep
/// producing the same stats as the live array, which --kernel-report
/// asserts via the shared checksum.
class LegacyAosCache {
 public:
  struct Block {
    Addr line = 0;
    bool valid = false;
    bool dirty = false;
    Mode owner = Mode::User;
    Cycle fill_cycle = 0;
    Cycle last_access = 0;
    Cycle last_write = 0;
    Cycle retention_deadline = 0;
    std::uint32_t access_count = 0;
    bool prefetched = false;
    std::uint16_t fault_bits = 0;
  };

  LegacyAosCache(const CacheConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), num_sets_(cfg.num_sets()) {
    blocks_.resize(static_cast<std::size_t>(num_sets_) * cfg_.assoc);
    wear_.assign(blocks_.size(), 0);
    repl_ = make_replacement(cfg_.repl, num_sets_, cfg_.assoc, seed);
  }

  void set_retention_period(Cycle period) { retention_period_ = period; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }
  std::string kernel_name() const { return "legacy/aos"; }

  AccessResult access(Addr line, AccessType type, Mode mode, Cycle now) {
    AccessResult r;
    const std::uint32_t set = set_index(line);
    const WayMask allowed = full_way_mask(cfg_.assoc);
    ++stats_.accesses[static_cast<int>(mode)];

    for (WayMask m = allowed; m != 0; m &= m - 1) {
      const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
      Block& b = blocks_[loc(set, way)];
      if (!b.valid || b.line != line) continue;
      if (expired(b, now)) {
        r.target_expired = true;
        r.expired_was_dirty = b.dirty;
        ++stats_.expired_blocks;
        if (b.dirty) ++stats_.expired_dirty;
        b.valid = false;
        repl_->on_invalidate(set, way);
        break;  // fall through to the miss path
      }
      r.hit = true;
      r.way = way;
      ++stats_.hits[static_cast<int>(mode)];
      if (b.prefetched) {
        ++stats_.useful_prefetches;
        b.prefetched = false;
      }
      b.last_access = now;
      ++b.access_count;
      if (type == AccessType::Write) {
        ++stats_.store_hits;
        b.dirty = true;
        b.last_write = now;
        ++wear_[loc(set, way)];
        if (retention_period_ != 0)
          b.retention_deadline = now + retention_period_;
      }
      repl_->on_hit(set, way);
      return r;
    }

    std::uint32_t fill_way = cfg_.assoc;  // sentinel
    for (WayMask m = allowed; m != 0; m &= m - 1) {
      const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
      Block& b = blocks_[loc(set, way)];
      if (b.valid && expired(b, now)) {
        ++stats_.expired_blocks;
        if (b.dirty) {
          ++stats_.expired_dirty;
          r.expired_was_dirty = true;
        }
        b.valid = false;
        repl_->on_invalidate(set, way);
      }
      if (!b.valid && fill_way == cfg_.assoc) fill_way = way;
    }

    if (fill_way == cfg_.assoc) {
      fill_way = repl_->choose_victim(set, allowed);
      Block& victim = blocks_[loc(set, fill_way)];
      r.evicted_valid = true;
      r.victim_dirty = victim.dirty;
      r.victim_line = victim.line;
      r.victim_owner = victim.owner;
      r.victim_access_count = victim.access_count;
      ++stats_.evictions;
      if (victim.dirty) ++stats_.writebacks;
      if (victim.owner != mode) ++stats_.cross_mode_evictions;
    }

    Block& b = blocks_[loc(set, fill_way)];
    b.line = line;
    b.valid = true;
    b.dirty = type == AccessType::Write;
    b.owner = mode;
    b.fill_cycle = now;
    b.last_access = now;
    b.last_write = now;
    b.retention_deadline =
        retention_period_ == 0 ? 0 : now + retention_period_;
    b.access_count = 1;
    b.prefetched = false;
    b.fault_bits = 0;
    ++wear_[loc(set, fill_way)];
    repl_->on_fill(set, fill_way);

    r.filled = true;
    r.way = fill_way;
    ++stats_.fills;
    return r;
  }

 private:
  std::size_t loc(std::uint32_t set, std::uint32_t way) const {
    return static_cast<std::size_t>(set) * cfg_.assoc + way;
  }
  std::uint32_t set_index(Addr line) const {
    return static_cast<std::uint32_t>((line / cfg_.line_size) &
                                      (num_sets_ - 1));
  }
  bool expired(const Block& b, Cycle now) const {
    return b.retention_deadline != 0 && now >= b.retention_deadline;
  }

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  Cycle retention_period_ = 0;
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> wear_;
  std::unique_ptr<ReplacementPolicy> repl_;
  CacheStats stats_;
};

enum class KernelCase { HitHeavy, MissHeavy, Mixed, RetentionOn };

const char* kernel_case_name(KernelCase c) {
  switch (c) {
    case KernelCase::HitHeavy: return "hit_heavy";
    case KernelCase::MissHeavy: return "miss_heavy";
    case KernelCase::Mixed: return "mixed";
    case KernelCase::RetentionOn: return "retention_on";
  }
  return "?";
}

/// Builds the deterministic op stream for one case. hit_heavy replays the
/// L1 inner loop — a hot footprint under a 32 KB 8-way array, the probe
/// every single trace record pays twice (l1i/l1d) before L2 is even
/// consulted; miss_heavy streams through a 2 MB array (every access a miss
/// after warmup); mixed draws from a footprint ~3x the 2 MB capacity with
/// 30% writes; retention_on reuses the mixed stream but the cache runs
/// with a finite retention period so the expiry lane is live.
std::vector<KernelOp> make_kernel_ops(KernelCase c, std::size_t n) {
  std::vector<KernelOp> ops;
  ops.reserve(n);
  Rng rng(0xBEEF + static_cast<std::uint64_t>(c));
  for (std::size_t i = 0; i < n; ++i) {
    KernelOp op;
    switch (c) {
      case KernelCase::HitHeavy:
        // 384 lines = 75% of the 32 KB L1-style array: pure hit traffic.
        op.line = rng.below(384) * kLineSize;
        op.type = rng.chance(0.2) ? AccessType::Write : AccessType::Read;
        break;
      case KernelCase::MissHeavy:
        op.line = static_cast<Addr>(i) * kLineSize;
        op.type = AccessType::Read;
        break;
      case KernelCase::Mixed:
      case KernelCase::RetentionOn:
        // 80% of accesses hit a 512 KB working set resident in the 2 MB
        // L2 (L2 hit rates for the paper's mobile workloads sit in the
        // 70–95% band); the rest stream through far lines so the
        // miss/fill path still carries real weight (~800k fills).
        op.line = rng.chance(0.8)
                      ? rng.below(8192) * kLineSize
                      : (8192 + rng.below(1'000'000)) * kLineSize;
        op.type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

/// hit_heavy runs against L1 geometry (32 KB, 8-way — the hierarchy's
/// per-record fast path); the other cases use the paper's 2 MB 16-way L2.
CacheConfig kernel_bench_config(KernelCase c) {
  CacheConfig cfg;
  if (c == KernelCase::HitHeavy) {
    cfg.size_bytes = 32ull << 10;
    cfg.assoc = 8;
  } else {
    cfg.size_bytes = 2ull << 20;
    cfg.assoc = 16;
  }
  return cfg;
}

SetAssocCache make_kernel_cache(KernelCase c, KernelMode mode) {
  SetAssocCache cache(kernel_bench_config(c), /*seed=*/3);
  cache.set_kernel_mode(mode);
  if (c == KernelCase::RetentionOn) cache.set_retention_period(50'000);
  return cache;
}

LegacyAosCache make_legacy_cache(KernelCase c) {
  LegacyAosCache cache(kernel_bench_config(c), /*seed=*/3);
  if (c == KernelCase::RetentionOn) cache.set_retention_period(50'000);
  return cache;
}

/// Replays `ops` through `cache` (SetAssocCache or LegacyAosCache) and
/// returns a stat checksum that any two bit-identical kernels must agree on.
template <typename Cache>
std::uint64_t replay_kernel_ops(Cache& cache,
                                const std::vector<KernelOp>& ops) {
  Cycle now = 0;
  for (const KernelOp& op : ops) {
    benchmark::DoNotOptimize(
        cache.access(op.line, op.type, Mode::User, ++now));
  }
  const CacheStats& s = cache.stats();
  return s.total_hits() + 3 * s.fills + 5 * s.store_hits +
         7 * s.evictions + 11 * s.writebacks + 13 * s.expired_blocks;
}

template <typename Cache>
void run_kernel_bench(benchmark::State& state, Cache cache,
                      const std::vector<KernelOp>& ops) {
  replay_kernel_ops(cache, ops);  // warmup: populate the array
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay_kernel_ops(cache, ops));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ops.size()));
  state.SetLabel(cache.kernel_name());
}

void BM_AccessKernel(benchmark::State& state, KernelCase c) {
  const std::vector<KernelOp> ops = make_kernel_ops(c, 1 << 18);
  switch (state.range(0)) {
    case 0:
      run_kernel_bench(state, make_kernel_cache(c, KernelMode::Fast), ops);
      break;
    case 1:
      run_kernel_bench(state, make_kernel_cache(c, KernelMode::Reference),
                       ops);
      break;
    default:
      run_kernel_bench(state, make_legacy_cache(c), ops);
      break;
  }
}

// Arg: 0 = fast kernel, 1 = reference kernel, 2 = pre-overhaul AoS replica.
#define KERNEL_BENCH(case_id)                                       \
  BENCHMARK_CAPTURE(BM_AccessKernel, case_id, KernelCase::case_id) \
      ->Arg(0)                                                      \
      ->Arg(1)                                                      \
      ->Arg(2)                                                      \
      ->Unit(benchmark::kMillisecond)
KERNEL_BENCH(HitHeavy);
KERNEL_BENCH(MissHeavy);
KERNEL_BENCH(Mixed);
KERNEL_BENCH(RetentionOn);
#undef KERNEL_BENCH

void BM_ShadowMonitor(benchmark::State& state) {
  ShadowTagMonitor m(2048, 4, 16);
  Rng rng(7);
  for (auto _ : state) {
    const Addr line = rng.below(32'768) * kLineSize;
    m.access(line, static_cast<std::uint32_t>((line / kLineSize) & 2047));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowMonitor);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generate_app_trace(AppId::Browser, 100'000, 42));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulation(benchmark::State& state) {
  const Trace trace = generate_app_trace(AppId::Launcher, 200'000, 42);
  const auto kind = static_cast<SchemeKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(trace, build_scheme(kind)));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
  state.SetLabel(scheme_name(kind));
}
BENCHMARK(BM_EndToEndSimulation)
    ->Arg(static_cast<int>(SchemeKind::BaselineSram))
    ->Arg(static_cast<int>(SchemeKind::StaticPartMrstt))
    ->Arg(static_cast<int>(SchemeKind::DynamicStt))
    ->Unit(benchmark::kMillisecond);

void BM_TelemetryOverhead(benchmark::State& state) {
  // Arg(0): detached (no Telemetry — the no-sink fast path, one pointer
  // test per instrumentation site). Arg(1): full session attached with
  // trace-cadence sampling. The acceptance bar is <2% overhead detached.
  const Trace trace = generate_app_trace(AppId::Browser, 200'000, 42);
  const bool attached = state.range(0) != 0;
  for (auto _ : state) {
    Telemetry tel;
    SimOptions opts;
    if (attached) {
      tel.set_sample_interval(10'000);
      opts.telemetry = &tel;
    }
    benchmark::DoNotOptimize(
        simulate(trace, build_scheme(SchemeKind::DynamicStt), opts));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
  state.SetLabel(attached ? "telemetry attached" : "detached (no-sink)");
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TraceCompression(benchmark::State& state) {
  const Trace t = generate_app_trace(AppId::VideoPlayer, 100'000, 42);
  const std::string path = "/tmp/mobcache_bm.mctz";
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_trace_compressed(t, path));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_TraceCompression)->Unit(benchmark::kMillisecond);

void BM_TraceDecompression(benchmark::State& state) {
  const Trace t = generate_app_trace(AppId::VideoPlayer, 100'000, 42);
  const std::string path = "/tmp/mobcache_bm.mctz";
  write_trace_compressed(t, path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_trace_compressed(path));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_TraceDecompression)->Unit(benchmark::kMillisecond);

void BM_MulticoreSimulation(benchmark::State& state) {
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Browser, 100'000, 42));
  traces.push_back(generate_app_trace(AppId::AudioPlayer, 100'000, 43));
  for (auto _ : state) {
    MulticoreL2Config c;
    c.cache.name = "L2";
    c.cache.size_bytes = 2ull << 20;
    c.cache.assoc = 16;
    c.cores = 2;
    MulticoreDynamicL2 l2(c);
    benchmark::DoNotOptimize(simulate_multicore(traces, l2));
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_MulticoreSimulation)->Unit(benchmark::kMillisecond);

void BM_ScenarioGeneration(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig sc;
    sc.apps = interactive_apps();
    sc.total_accesses = 100'000;
    sc.seed = 42;
    benchmark::DoNotOptimize(generate_scenario(sc));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_ScenarioGeneration)->Unit(benchmark::kMillisecond);

// ---- --kernel-report: self-timed fast-vs-reference comparison ------------

/// Best-of-`reps` wall time for replaying `ops`, plus the stat checksum
/// (identical across reps by construction — the cache is rebuilt per rep).
struct KernelTiming {
  double best_ms = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t hits = 0;
  std::uint64_t fills = 0;
};

template <typename MakeCache>
KernelTiming time_kernel(MakeCache make_cache,
                         const std::vector<KernelOp>& ops, int reps) {
  KernelTiming t;
  for (int r = 0; r < reps; ++r) {
    auto cache = make_cache();
    replay_kernel_ops(cache, ops);  // warmup pass populates the array
    cache.reset_stats();
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t sum = replay_kernel_ops(cache, ops);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < t.best_ms) t.best_ms = ms;
    t.checksum = sum;
    t.hits = cache.stats().total_hits();
    t.fills = cache.stats().fills;
  }
  return t;
}

/// Runs the four kernel cases under both dispatch modes, verifies the stat
/// checksums agree (a cheap in-binary equivalence gate), and writes
/// BENCH_micro.json. With --min-speedup=X, exits nonzero when the
/// fast-kernel speedup on hit_heavy or mixed falls below X.
int run_kernel_report(int argc, char** argv) {
  const double min_speedup =
      bench_flag_double(argc, argv, "--min-speedup", 0.0);
  const std::size_t accesses = static_cast<std::size_t>(
      bench_flag_u64(argc, argv, "--accesses", 4u << 20));
  const int reps =
      static_cast<int>(bench_flag_u64(argc, argv, "--reps", 3, 1, 1000));

  BenchReport report("micro", bench_jobs(argc, argv));
  std::uint64_t total = 0;
  bool gate_ok = true;
  for (KernelCase c : {KernelCase::HitHeavy, KernelCase::MissHeavy,
                       KernelCase::Mixed, KernelCase::RetentionOn}) {
    const std::string name = kernel_case_name(c);
    const std::vector<KernelOp> ops = make_kernel_ops(c, accesses);
    const KernelTiming fast = time_kernel(
        [&] { return make_kernel_cache(c, KernelMode::Fast); }, ops, reps);
    const KernelTiming ref = time_kernel(
        [&] { return make_kernel_cache(c, KernelMode::Reference); }, ops,
        reps);
    const KernelTiming aos =
        time_kernel([&] { return make_legacy_cache(c); }, ops, reps);
    total += 3 * ops.size();

    if (fast.checksum != ref.checksum || fast.checksum != aos.checksum ||
        fast.hits != ref.hits || fast.hits != aos.hits ||
        fast.fills != ref.fills || fast.fills != aos.fills) {
      std::fprintf(stderr,
                   "[bench] FAIL %s: kernels diverge (checksum fast %llu, "
                   "reference %llu, aos %llu)\n",
                   name.c_str(),
                   static_cast<unsigned long long>(fast.checksum),
                   static_cast<unsigned long long>(ref.checksum),
                   static_cast<unsigned long long>(aos.checksum));
      return 1;
    }

    // Deterministic half: pure functions of the op stream.
    report.add_result(name + "/hits", static_cast<double>(fast.hits));
    report.add_result(name + "/fills", static_cast<double>(fast.fills));
    report.add_result(name + "/checksum",
                      static_cast<double>(fast.checksum));
    // Timing half: "timing/" keys get relative-tolerance treatment from
    // check_bench.py compare --rel-tol. "speedup" is fast vs. the frozen
    // pre-overhaul AoS baseline (the gated ratio); "speedup_vs_ref" is fast
    // vs. the in-tree reference kernel, which shares the SoA layout and so
    // isolates the devirtualization/feature-elision part of the win.
    const double n = static_cast<double>(ops.size());
    const double fast_mps = n / 1e3 / fast.best_ms;
    const double ref_mps = n / 1e3 / ref.best_ms;
    const double aos_mps = n / 1e3 / aos.best_ms;
    const double speedup = aos.best_ms / fast.best_ms;
    report.add_result("timing/" + name + "/fast_maccess_per_s", fast_mps);
    report.add_result("timing/" + name + "/ref_maccess_per_s", ref_mps);
    report.add_result("timing/" + name + "/aos_maccess_per_s", aos_mps);
    report.add_result("timing/" + name + "/speedup", speedup);
    report.add_result("timing/" + name + "/speedup_vs_ref",
                      ref.best_ms / fast.best_ms);
    std::printf("[bench] %-12s fast %7.1f  ref %7.1f  aos %7.1f Macc/s  "
                "speedup %.2fx (vs ref %.2fx)\n",
                name.c_str(), fast_mps, ref_mps, aos_mps, speedup,
                ref.best_ms / fast.best_ms);
    if (min_speedup > 0.0 &&
        (c == KernelCase::HitHeavy || c == KernelCase::Mixed) &&
        speedup < min_speedup) {
      std::fprintf(stderr,
                   "[bench] FAIL %s: speedup %.2fx below required %.2fx\n",
                   name.c_str(), speedup, min_speedup);
      gate_ok = false;
    }
  }
  report.set_points(total);
  if (!report.write()) return 1;
  return gate_ok ? 0 : 1;
}

// ---- --sweep-report: batched vs per-point sweep-engine comparison --------

/// One frozen lane of the sweep-gate grid: a BaselineSram geometry variant.
struct SweepLane {
  std::uint64_t size_bytes;
  std::uint32_t assoc;
};

/// The frozen 16-lane grid the sweep gate times: 4 capacities × 4 way
/// counts of the shared-SRAM baseline. Enough lanes that the amortized
/// L1 pass dominates the per-point path's cost, small enough that every
/// lane's tag state stays resident during the chunk-blocked replay.
std::vector<SweepLane> sweep_report_lanes() {
  std::vector<SweepLane> lanes;
  for (std::uint64_t kb : {256u, 512u, 1024u, 2048u})
    for (std::uint32_t assoc : {2u, 4u, 8u, 16u})
      lanes.push_back({kb << 10, assoc});
  return lanes;
}

/// Deterministic gate trace: an L1-resident hot footprint with a thin
/// L2-bound tail. The batch engine's win is amortizing the shared L1 pass,
/// so the gate measures it in the regime it exists for — interactive phases
/// where L1 absorbs ~98% of accesses (the paper's mobile workloads idle in
/// this band) and the swept L2 geometry decides the remaining traffic's
/// fate. 30% ifetches over a 128-line code set; data 97% in a 384-line hot
/// set, 2% in a 512 KB warm region (where the grid's capacities actually
/// diverge), 1% streaming cold lines.
Trace make_sweep_trace(std::uint64_t n) {
  Trace t("sweep_gate");
  std::vector<Access> v;
  v.reserve(n);
  Rng rng(0xCAFE);
  for (std::uint64_t i = 0; i < n; ++i) {
    Access a;
    if (rng.chance(0.3)) {
      a.type = AccessType::InstFetch;
      a.addr = (1ull << 32) + rng.below(128) * kLineSize;
    } else {
      if (rng.chance(0.97)) {
        a.addr = rng.below(384) * kLineSize;
      } else if (rng.chance(2.0 / 3.0)) {
        a.addr = (1ull << 33) + rng.below(8192) * kLineSize;
      } else {
        a.addr = (1ull << 34) + static_cast<Addr>(i) * kLineSize;
      }
      a.type = rng.chance(0.2) ? AccessType::Write : AccessType::Read;
    }
    v.push_back(a);
  }
  t.append(std::move(v));
  return t;
}

std::unique_ptr<L2Interface> make_sweep_lane(const SweepLane& l) {
  SchemeParams p;
  p.baseline_bytes = l.size_bytes;
  p.baseline_assoc = l.assoc;
  return build_scheme(SchemeKind::BaselineSram, p);
}

/// Times the frozen grid twice — N independent simulate() runs vs. one
/// build_demand_stream() + N-lane simulate_batch_lanes() replay — and
/// verifies the two paths produce byte-identical SimResults (via the
/// result-store record serialization, the same bytes the ExperimentRunner
/// persists). Writes BENCH_micro.json with the grid's deterministic
/// fingerprint under "results" (sweep/*, including the ShadowConfigBatch
/// estimation error against the real lanes) and the points/s ratio under
/// "timing/sweep/*". With --min-sweep-speedup=X, exits nonzero when the
/// batched path's points/s advantage falls below X — CI's sweep-gate runs
/// this at X = 5 (see .github/workflows/ci.yml for the escape hatch).
int run_sweep_report(int argc, char** argv) {
  const double min_speedup =
      bench_flag_double(argc, argv, "--min-sweep-speedup", 0.0);
  const std::uint64_t accesses =
      bench_flag_u64(argc, argv, "--accesses", 400'000);
  const int reps =
      static_cast<int>(bench_flag_u64(argc, argv, "--reps", 3, 1, 1000));

  BenchReport report("micro", bench_jobs(argc, argv));
  const Trace trace = make_sweep_trace(accesses);
  const std::vector<SweepLane> grid = sweep_report_lanes();
  const std::size_t n = grid.size();
  const SimOptions opts;  // defaults are batch-eligible by construction
  if (!batch_eligible(opts)) {
    std::fprintf(stderr, "[bench] FAIL sweep: default SimOptions no longer "
                         "batch-eligible\n");
    return 1;
  }

  // Per-point path: what a sweep pays without the batch engine — one full
  // simulate() (L1 front end included) per lane. Scheme construction is
  // timed on both sides; it is part of each path's real per-point cost.
  double pp_best_ms = 0.0;
  std::vector<SimResult> pp_results;
  for (int r = 0; r < reps; ++r) {
    std::vector<SimResult> results;
    results.reserve(n);
    const auto t0 = std::chrono::steady_clock::now();
    for (const SweepLane& l : grid) {
      const std::unique_ptr<L2Interface> l2 = make_sweep_lane(l);
      results.push_back(simulate(trace, *l2, opts));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < pp_best_ms) pp_best_ms = ms;
    pp_results = std::move(results);
  }

  // Batched path: one shared L1 pass, then every lane replayed from the
  // captured demand stream. The stream build is inside the timed region —
  // it is the batched path's real cost, amortized over all n lanes.
  double batch_best_ms = 0.0;
  std::vector<SimResult> batch_results;
  DemandStream stream;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    DemandStream s = build_demand_stream(trace, opts);
    std::vector<std::unique_ptr<L2Interface>> designs;
    std::vector<L2Interface*> lanes;
    designs.reserve(n);
    lanes.reserve(n);
    for (const SweepLane& l : grid) {
      designs.push_back(make_sweep_lane(l));
      lanes.push_back(designs.back().get());
    }
    std::vector<BatchLaneOutcome> outcomes =
        simulate_batch_lanes(s, lanes, opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < batch_best_ms) batch_best_ms = ms;
    batch_results.clear();
    for (BatchLaneOutcome& o : outcomes) {
      if (!o.ok()) std::rethrow_exception(o.error);
      batch_results.push_back(std::move(*o.result));
    }
    stream = std::move(s);
  }

  // In-binary equivalence gate: the exact record bytes the result store
  // would persist must match lane for lane.
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string pp = result_to_record_json(pp_results[i]);
    const std::string ba = result_to_record_json(batch_results[i]);
    if (pp != ba) {
      std::fprintf(stderr,
                   "[bench] FAIL sweep lane %zu (%llu KB %u-way): batched "
                   "result diverges from per-point\n  per-point: %s\n  "
                   "batched:   %s\n",
                   i, static_cast<unsigned long long>(grid[i].size_bytes >> 10),
                   grid[i].assoc, pp.c_str(), ba.c_str());
      return 1;
    }
    const CacheStats& l2 = pp_results[i].l2;
    checksum += l2.total_hits() + 3 * l2.fills + 5 * l2.evictions +
                7 * l2.writebacks;
  }

  // Estimation seam accuracy: the auxiliary-tag ShadowConfigBatch profiles
  // every grid geometry from the same demand stream; its estimated miss
  // rates are compared against the simulated lanes they approximate.
  std::vector<ShadowGeometry> geoms;
  geoms.reserve(n);
  for (const SweepLane& l : grid) {
    geoms.push_back({static_cast<std::uint32_t>(
                         l.size_bytes / (kLineSize * l.assoc)),
                     l.assoc});
  }
  ShadowConfigBatch shadow(geoms, /*sample_shift=*/2);
  const std::vector<double> est = estimate_demand_miss_rates(stream, shadow);
  double max_err = 0.0;
  double sum_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double err = std::abs(est[i] - pp_results[i].l2.miss_rate());
    max_err = std::max(max_err, err);
    sum_err += err;
  }

  const double demand_ratio =
      stream.total_records == 0
          ? 0.0
          : static_cast<double>(stream.size()) /
                static_cast<double>(stream.total_records);
  const double pp_pps = static_cast<double>(n) * 1e3 / pp_best_ms;
  const double batch_pps = static_cast<double>(n) * 1e3 / batch_best_ms;
  const double speedup = pp_best_ms / batch_best_ms;

  report.set_points(static_cast<std::uint64_t>(n));
  report.set_sweep_batch(static_cast<unsigned>(n), /*batched=*/true);
  // Deterministic half: pure functions of the trace + grid definition.
  report.add_result("sweep/lanes", static_cast<double>(n));
  report.add_result("sweep/demand_ratio", demand_ratio);
  report.add_result("sweep/checksum", static_cast<double>(checksum));
  report.add_result("sweep/shadow_max_abs_err", max_err);
  report.add_result("sweep/shadow_mean_abs_err",
                    sum_err / static_cast<double>(n));
  // Timing half: rel-tol keys; "speedup" is the CI-gated ratio.
  report.add_result("timing/sweep/per_point_pps", pp_pps);
  report.add_result("timing/sweep/batched_pps", batch_pps);
  report.add_result("timing/sweep/speedup", speedup);
  std::printf("[bench] sweep %zu lanes  per-point %6.1f  batched %6.1f "
              "points/s  speedup %.2fx  (demand ratio %.3f, shadow max err "
              "%.4f)\n",
              n, pp_pps, batch_pps, speedup, demand_ratio, max_err);

  bool gate_ok = true;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "[bench] FAIL sweep: batched speedup %.2fx below required "
                 "%.2fx\n",
                 speedup, min_speedup);
    gate_ok = false;
  }
  if (!report.write()) return 1;
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace mobcache

int main(int argc, char** argv) {
  bool kernel_report = false;
  bool sweep_report = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernel-report") == 0) kernel_report = true;
    if (std::strcmp(argv[i], "--sweep-report") == 0) sweep_report = true;
  }
  if (kernel_report && sweep_report) {
    std::fprintf(stderr,
                 "bench_micro: --kernel-report and --sweep-report are "
                 "mutually exclusive\n");
    return 1;
  }
  // The report modes parse checked numeric flags: garbage exits 2.
  if (kernel_report) {
    return mobcache::guarded_main("bench_micro", /*install_signals=*/false,
                                  argc, argv, mobcache::run_kernel_report);
  }
  if (sweep_report) {
    return mobcache::guarded_main("bench_micro", /*install_signals=*/false,
                                  argc, argv, mobcache::run_sweep_report);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
