/// \file bench_micro.cpp
/// Self-timed speed gates of the simulation substrate itself — regression
/// guards for the simulator's own throughput (the evaluation sweeps run
/// hundreds of millions of cache accesses). Each writes BENCH_micro.json for
/// CI's perf-smoke job.
///
/// Exactly one report mode runs; with none or both, bench_micro prints its
/// usage and exits 2.
///  * --kernel-report: a self-timed access-kernel comparison (reference vs.
///    fast dispatch, see docs/PERFORMANCE.md), gated by --min-speedup=X.
///    Deterministic stat checksums land under "results"; throughputs and
///    speedups land under "timing/" keys, which scripts/check_bench.py
///    treats with a relative tolerance instead of exact equality.
///  * --sweep-report: a self-timed comparison of E9's grid run as one
///    runner call against the same designs run one call each
///    (docs/SWEEP_ENGINE.md); it verifies byte-identical records in-binary
///    and writes the timing/sweep/* keys perf-smoke gates on
///    (--min-sweep-speedup=X).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "exp/result_store.hpp"
#include "exp/runner.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

// ---- --kernel-report: self-timed reference-vs-fast comparison ------------
//
// Each case pre-generates its operation stream once, so the timed loop is
// pure cache-array work, once under the fast (specialized) kernel and once
// under the reference kernel (virtual replacement calls, all feature
// branches).

/// One pre-generated operation for the kernel cases.
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
    cache.access(op.line, op.type, Mode::User, ++now);
  }
  const CacheStats& s = cache.stats();
  return s.total_hits() + 3 * s.fills + 5 * s.store_hits +
         7 * s.evictions + 11 * s.writebacks + 13 * s.expired_blocks;
}

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
/// falls below X. The report's points are the timed replays (cases × reps ×
/// two kernels), all on one thread.
int run_kernel_report(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const double min_speedup = bench_flag_double(args, "--min-speedup", 0.0);
  const std::size_t accesses = static_cast<std::size_t>(
      bench_flag_u64(args, "--accesses", 4u << 20, 1));
  const int reps =
      static_cast<int>(bench_flag_u64(args, "--reps", 5, 1, 1000));

  BenchReport report("micro", /*jobs=*/1);
  std::uint64_t replays = 0;
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
      replays += 2;
    }

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
  report.set_points(replays);
  report.write();
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
  const std::vector<std::string> args(argv + 1, argv + argc);
  const double min_speedup =
      bench_flag_double(args, "--min-sweep-speedup", 0.0);
  const std::uint64_t accesses = bench_flag_u64(args, "--accesses", 300'000, 1);
  const int reps =
      static_cast<int>(bench_flag_u64(args, "--reps", 5, 1, 1000));

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
  report.write();
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
  if (kernel_report == sweep_report) {
    std::fprintf(stderr,
                 "usage: bench_micro --kernel-report [--min-speedup=X] "
                 "[--accesses=N] [--reps=N]\n"
                 "       bench_micro --sweep-report [--min-sweep-speedup=X] "
                 "[--accesses=N] [--reps=N]\n"
                 "(the two report modes are mutually exclusive)\n");
    return 2;
  }
  // The report modes parse checked numeric flags: garbage exits 2.
  return mobcache::guarded_main(
      "bench_micro", /*install_signals=*/false, argc, argv,
      kernel_report ? mobcache::run_kernel_report : mobcache::run_sweep_report);
}
