/// \file bench_micro.cpp
/// google-benchmark microbenchmarks of the simulation substrate itself —
/// regression guards for the simulator's own throughput (the evaluation
/// sweeps run hundreds of millions of cache accesses).
///
/// Three entry modes:
///  * default: the usual google-benchmark CLI over every BENCHMARK below;
///  * --kernel-report: a self-timed access-kernel comparison (reference vs.
///    fast dispatch, see docs/PERFORMANCE.md) that writes BENCH_micro.json
///    for CI's perf-smoke gate (--min-speedup=X). Deterministic stat
///    checksums land under "results"; throughputs and speedups land under
///    "timing/" keys, which scripts/check_bench.py treats with a relative
///    tolerance instead of exact equality.
///  * --sweep-report: a self-timed comparison of E9's grid run as one
///    runner call against the same designs run one call each
///    (docs/SWEEP_ENGINE.md); it verifies byte-identical records in-binary
///    and writes the timing/sweep/* keys perf-smoke gates on
///    (--min-sweep-speedup=X).
/// The two report modes are mutually exclusive.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
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
#include "exp/runner.hpp"
#include "obs/telemetry.hpp"
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
SetAssocCache make_kernel_cache(KernelCase c, KernelMode mode) {
  CacheConfig cfg;
  if (c == KernelCase::HitHeavy) {
    cfg.size_bytes = 32ull << 10;
    cfg.assoc = 8;
  } else {
    cfg.size_bytes = 2ull << 20;
    cfg.assoc = 16;
  }
  SetAssocCache cache(cfg, /*seed=*/3);
  cache.set_kernel_mode(mode);
  if (c == KernelCase::RetentionOn) cache.set_retention_period(50'000);
  return cache;
}

/// Replays `ops` through `cache` and returns a stat checksum that any two
/// bit-identical kernels must agree on.
std::uint64_t replay_kernel_ops(SetAssocCache& cache,
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

void BM_AccessKernel(benchmark::State& state, KernelCase c) {
  const std::vector<KernelOp> ops = make_kernel_ops(c, 1 << 18);
  SetAssocCache cache = make_kernel_cache(
      c, state.range(0) == 0 ? KernelMode::Fast : KernelMode::Reference);
  replay_kernel_ops(cache, ops);  // warmup: populate the array
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay_kernel_ops(cache, ops));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ops.size()));
  state.SetLabel(cache.kernel_name());
}

#define KERNEL_BENCH(case_id)                                       \
  BENCHMARK_CAPTURE(BM_AccessKernel, case_id, KernelCase::case_id) \
      ->Arg(0)                                                      \
      ->Arg(1)                                                      \
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

// ---- --kernel-report: self-timed reference-vs-fast comparison ------------

/// One timed replay of `ops` into a freshly built cache, after a warmup
/// pass that populates the array, plus the stat checksum (identical across
/// repetitions by construction).
struct KernelRep {
  double ms = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t hits = 0;
  std::uint64_t fills = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

KernelRep time_kernel_once(KernelCase c, KernelMode mode,
                           const std::vector<KernelOp>& ops) {
  SetAssocCache cache = make_kernel_cache(c, mode);
  replay_kernel_ops(cache, ops);  // warmup pass populates the array
  cache.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t sum = replay_kernel_ops(cache, ops);
  const double ms = ms_since(t0);
  return {ms, sum, cache.stats().total_hits(), cache.stats().fills};
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs the four kernel cases under both dispatch modes, verifies the stat
/// checksums agree (a cheap in-binary equivalence gate), and writes
/// BENCH_micro.json. The reference kernel is a path the product keeps
/// (MOBCACHE_REFERENCE_KERNEL=1, held to E9's golden bytes by the
/// golden.e9.reference ctest), so the gated speedup is what the fast
/// kernels buy over it. Each repetition times the fast and reference
/// kernels back to back, so a burst of host noise lands on one repetition's
/// pair of timings rather than on all of one kernel's, and the speedup is
/// the median of the per-repetition reference/fast ratios. With
/// --min-speedup=X, exits nonzero when that speedup on hit_heavy or mixed
/// falls below X.
int run_kernel_report(int argc, char** argv) {
  const double min_speedup =
      bench_flag_double(argc, argv, "--min-speedup", 0.0);
  const std::size_t accesses = static_cast<std::size_t>(
      bench_flag_u64(argc, argv, "--accesses", 4u << 20, 1));
  const int reps =
      static_cast<int>(bench_flag_u64(argc, argv, "--reps", 5, 1, 1000));

  BenchReport report("micro", bench_jobs(argc, argv));
  std::uint64_t total = 0;
  bool gate_ok = true;
  for (KernelCase c : {KernelCase::HitHeavy, KernelCase::MissHeavy,
                       KernelCase::Mixed, KernelCase::RetentionOn}) {
    const std::string name = kernel_case_name(c);
    const std::vector<KernelOp> ops = make_kernel_ops(c, accesses);
    std::vector<double> fast_ms, ref_ms, ratios;
    KernelRep fast;
    for (int r = 0; r < reps; ++r) {
      fast = time_kernel_once(c, KernelMode::Fast, ops);
      const KernelRep ref = time_kernel_once(c, KernelMode::Reference, ops);
      if (fast.checksum != ref.checksum || fast.hits != ref.hits ||
          fast.fills != ref.fills) {
        std::fprintf(stderr,
                     "[bench] FAIL %s: kernels diverge (checksum fast %llu, "
                     "reference %llu)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(fast.checksum),
                     static_cast<unsigned long long>(ref.checksum));
        return 1;
      }
      fast_ms.push_back(fast.ms);
      ref_ms.push_back(ref.ms);
      ratios.push_back(ref.ms / fast.ms);
    }
    total += 2 * ops.size();

    // Deterministic half: pure functions of the op stream.
    report.add_result(name + "/hits", static_cast<double>(fast.hits));
    report.add_result(name + "/fills", static_cast<double>(fast.fills));
    report.add_result(name + "/checksum",
                      static_cast<double>(fast.checksum));
    // Timing half: "timing/" keys get relative-tolerance treatment from
    // check_bench.py compare --rel-tol. Throughputs come from each kernel's
    // median repetition; "speedup" is the gated reference/fast ratio.
    const double n = static_cast<double>(ops.size());
    const double fast_mps = n / 1e3 / median_of(fast_ms);
    const double ref_mps = n / 1e3 / median_of(ref_ms);
    const double speedup = median_of(ratios);
    report.add_result("timing/" + name + "/fast_maccess_per_s", fast_mps);
    report.add_result("timing/" + name + "/ref_maccess_per_s", ref_mps);
    report.add_result("timing/" + name + "/speedup", speedup);
    std::printf("[bench] %-12s fast %7.1f  ref %7.1f Macc/s  "
                "speedup %.2fx\n",
                name.c_str(), fast_mps, ref_mps, speedup);
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

// ---- --sweep-report: one runner grid vs one-design calls -----------------

/// The first (spec, workload) cell whose record bytes differ between two
/// results of the same specs, as "spec/workload"; empty when all match.
std::string first_mismatch(const std::vector<SchemeSuiteResult>& a,
                           const std::vector<SchemeSuiteResult>& b) {
  for (std::size_t s = 0; s < a.size(); ++s) {
    for (std::size_t w = 0; w < a[s].per_workload.size(); ++w) {
      if (result_to_record_json(a[s].per_workload[w]) !=
          result_to_record_json(b[s].per_workload[w]))
        return a[s].name + "/" + a[s].per_workload[w].workload;
    }
  }
  return {};
}

/// Times E9's grid — the 8 interactive apps × 9 headline schemes, on an
/// ExperimentRunner at jobs=1 — two ways: one run_designs() call, whose
/// cells replay from one L1MissIndex per trace, and the same specs as nine
/// one-design calls, where each cell is alone on its trace and so calls
/// simulate(). Verifies that every record is byte-equal across the two and
/// writes BENCH_micro.json with the grid's deterministic fingerprint under
/// "results" (sweep/*) and the cells/s of each side under "timing/sweep/*".
/// Each repetition times both sides, in alternating order, and the speedup
/// is the median of the per-repetition one-design/grid ratios. With
/// --min-sweep-speedup=X, exits nonzero when it falls below X — CI's
/// perf-smoke job runs this (see .github/workflows/ci.yml for the floor and
/// its escape hatch).
int run_sweep_report(int argc, char** argv) {
  const double min_speedup =
      bench_flag_double(argc, argv, "--min-sweep-speedup", 0.0);
  const std::uint64_t accesses =
      bench_flag_u64(argc, argv, "--accesses", 300'000, 1);
  const int reps =
      static_cast<int>(bench_flag_u64(argc, argv, "--reps", 5, 1, 1000));

  BenchReport report("micro", /*jobs=*/1);
  const ExperimentRunner runner(interactive_apps(), accesses, 42);
  std::vector<DesignSpec> specs;
  for (SchemeKind k : headline_schemes()) specs.push_back(scheme_design(k));
  const std::size_t cells = specs.size() * runner.traces().size();

  std::vector<double> grid_ms, single_ms, ratios;
  std::vector<SchemeSuiteResult> grid, single;
  for (int r = 0; r < reps; ++r) {
    auto time_grid = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      grid = runner.run_designs(specs);
      grid_ms.push_back(ms_since(t0));
    };
    auto time_single = [&] {
      single.clear();
      const auto t0 = std::chrono::steady_clock::now();
      for (const DesignSpec& d : specs)
        single.push_back(std::move(runner.run_designs({d}).front()));
      single_ms.push_back(ms_since(t0));
    };
    if (r % 2 == 0) {
      time_grid();
      time_single();
    } else {
      time_single();
      time_grid();
    }
    ratios.push_back(single_ms.back() / grid_ms.back());
  }

  if (const std::string cell = first_mismatch(grid, single); !cell.empty()) {
    std::fprintf(stderr,
                 "[bench] FAIL sweep: cell %s of the grid call diverges from "
                 "its one-design call\n",
                 cell.c_str());
    return 1;
  }

  // Deterministic half: pure functions of the suite and the schemes.
  std::uint64_t checksum = 0;
  for (const SchemeSuiteResult& s : grid) {
    for (const SimResult& res : s.per_workload) {
      const CacheStats& l2 = res.l2;
      checksum += l2.total_hits() + 3 * l2.fills + 5 * l2.evictions +
                  7 * l2.writebacks;
    }
  }
  std::uint64_t demand = 0, records = 0;
  for (const SimResult& res : grid.front().per_workload) {
    demand += res.l1i.total_misses() + res.l1d.total_misses();
    records += res.records;
  }
  const double demand_ratio =
      static_cast<double>(demand) / static_cast<double>(records);
  const double n = static_cast<double>(cells);
  const double grid_cps = n * 1e3 / median_of(grid_ms);
  const double single_cps = n * 1e3 / median_of(single_ms);
  const double speedup = median_of(ratios);

  report.set_points(cells);
  report.add_result("sweep/cells", n);
  report.add_result("sweep/demand_ratio", demand_ratio);
  report.add_result("sweep/checksum", static_cast<double>(checksum));
  // Timing half: rel-tol keys; "speedup" is the gated ratio.
  report.add_result("timing/sweep/grid_cells_per_s", grid_cps);
  report.add_result("timing/sweep/one_design_cells_per_s", single_cps);
  report.add_result("timing/sweep/speedup", speedup);
  std::printf("[bench] sweep %zu cells  one-design %6.1f  grid %6.1f "
              "cells/s  speedup %.2fx  (demand ratio %.3f)\n",
              cells, single_cps, grid_cps, speedup, demand_ratio);

  bool gate_ok = true;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "[bench] FAIL sweep: grid speedup %.2fx below required "
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
