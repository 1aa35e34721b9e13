/// \file bench_e22_fleet.cpp
/// E22 (extension) — fleet population sweep: many thousands of sampled user
/// sessions stream through the proposed dynamic STT design, folding into
/// mergeable fleet statistics (docs/EXPERIMENTS.md). Sessions never
/// materialize — ScenarioStream chunks feed simulate(TraceStream&) directly,
/// so peak RSS is bounded by jobs · O(chunk) regardless of the session
/// count. CI's fleet-gate holds this binary to a sessions/s floor and a
/// peak-RSS ceiling (scripts/check_bench.py rss-gate).
///
/// Flags (on top of the shared --jobs=N):
///   --sessions=N          fleet size (default 10000)
///   --mean-accesses=N     population mean session length (default
///                         MOBCACHE_TRACE_LEN, else 60000)
///   --seed=N              base seed; session i draws sweep_point_seed(seed,i)
///   --scheme=NAME         L2 design under test (default dp_stt)
///   --min-sessions-per-s=X   gate: exit 1 below this throughput
///   --max-peak-rss-mb=X      gate: exit 1 above this peak RSS
///
/// The BENCH "results" section reports the merged-sketch quantiles — exact
/// integer-count merges, so byte-identical for every --jobs value (the
/// determinism contract in src/exp/fleet.hpp, pinned by tests/test_fleet.cpp).

#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "exp/fleet.hpp"
#include "exp/report.hpp"
#include "trace/trace_stream.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

SchemeKind flag_scheme(int argc, char** argv, SchemeKind fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scheme=", 9) != 0) continue;
    const char* want = argv[i] + 9;
    bool found = false;
    for (int k = 0; k < kSchemeCount; ++k) {
      if (std::strcmp(scheme_name(static_cast<SchemeKind>(k)), want) == 0) {
        fallback = static_cast<SchemeKind>(k);
        found = true;
      }
    }
    if (!found) throw ConfigError(std::string("unknown --scheme: ") + want);
  }
  return fallback;
}

void add_metric_results(BenchReport& bench, const char* key,
                        const FleetMetric& m) {
  // Sketch quantiles only: exact under any sharding, so safe for the
  // check_bench.py determinism compare. (The Welford mean is jobs-stable
  // but not shard-count-stable — it stays out of "results".)
  bench.add_result(std::string(key) + "_p50", m.sketch.quantile(0.50));
  bench.add_result(std::string(key) + "_p95", m.sketch.quantile(0.95));
  bench.add_result(std::string(key) + "_p99", m.sketch.quantile(0.99));
  bench.add_result(std::string(key) + "_max", m.sketch.max());
}

std::string row(const FleetMetric& m, int decimals) {
  return format_double(m.sketch.quantile(0.50), decimals) + " / " +
         format_double(m.sketch.quantile(0.95), decimals) + " / " +
         format_double(m.sketch.quantile(0.99), decimals);
}

}  // namespace

static int run_bench(int argc, char** argv) {
  const unsigned jobs = bench_jobs(argc, argv);
  BenchReport bench("e22_fleet", jobs);
  print_banner("E22", "Fleet population sweep (streaming sessions)");

  FleetConfig cfg;
  cfg.sessions = bench_flag_u64(argc, argv, "--sessions", 10'000);
  cfg.seed = bench_flag_u64(argc, argv, "--seed", 1);
  cfg.scheme = flag_scheme(argc, argv, SchemeKind::DynamicStt);
  cfg.jobs = jobs;
  const std::uint64_t mean =
      bench_flag_u64(argc, argv, "--mean-accesses", bench_trace_len(60'000));
  cfg.mix = PopulationModel::default_mix(mean);
  // Gate floors, parsed before the run so a bad value fails fast.
  const double min_rate =
      bench_flag_double(argc, argv, "--min-sessions-per-s", 0.0);
  const double max_rss_mb =
      bench_flag_double(argc, argv, "--max-peak-rss-mb", 0.0);

  reset_stream_counters();
  reset_fleet_counters();
  const FleetResult fleet = run_fleet(cfg);
  const double wall = bench.wall_ms();
  const double sessions_per_s =
      wall > 0.0 ? static_cast<double>(fleet.acc.sessions) * 1e3 / wall : 0.0;

  TablePrinter t({"metric", "p50 / p95 / p99", "mean", "max"});
  t.add_row({"cache energy (nJ)", row(fleet.acc.cache_energy_nj, 1),
             format_double(fleet.acc.cache_energy_nj.stat.mean(), 1),
             format_double(fleet.acc.cache_energy_nj.stat.max(), 1)});
  t.add_row({"total energy (nJ)", row(fleet.acc.total_energy_nj, 1),
             format_double(fleet.acc.total_energy_nj.stat.mean(), 1),
             format_double(fleet.acc.total_energy_nj.stat.max(), 1)});
  t.add_row({"CPI", row(fleet.acc.cpi, 4),
             format_double(fleet.acc.cpi.stat.mean(), 4),
             format_double(fleet.acc.cpi.stat.max(), 4)});
  emit(t, "e22_fleet.csv");

  const StreamCounters sc = stream_counters();
  std::printf(
      "\n%llu sessions (%llu records) on %s, %zu shards, %.1f sessions/s\n"
      "streaming: %llu chunks, %llu buffer reuses, "
      "high-water chunk %.1f KiB, peak RSS %.1f MiB\n",
      static_cast<unsigned long long>(fleet.acc.sessions),
      static_cast<unsigned long long>(fleet.acc.records),
      scheme_name(cfg.scheme), fleet.shards, sessions_per_s,
      static_cast<unsigned long long>(sc.chunks_generated),
      static_cast<unsigned long long>(sc.chunk_reuse_hits),
      static_cast<double>(sc.high_water_chunk_bytes) / 1024.0,
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));

  bench.set_points(fleet.acc.sessions);
  bench.add_run_fact("sessions_per_s", sessions_per_s);
  bench.add_result("sessions", static_cast<double>(fleet.acc.sessions));
  bench.add_result("records", static_cast<double>(fleet.acc.records));
  add_metric_results(bench, "cache_energy_nj", fleet.acc.cache_energy_nj);
  add_metric_results(bench, "total_energy_nj", fleet.acc.total_energy_nj);
  add_metric_results(bench, "cpi", fleet.acc.cpi);
  bench.write();

  // In-binary CI gates (CI passes the floors; local runs skip them).
  if (min_rate > 0.0 && sessions_per_s < min_rate) {
    std::fprintf(stderr,
                 "bench_e22_fleet: FAIL: %.1f sessions/s below the %.1f "
                 "floor\n",
                 sessions_per_s, min_rate);
    return 1;
  }
  const double rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  if (max_rss_mb > 0.0 && rss_mb > max_rss_mb) {
    std::fprintf(stderr,
                 "bench_e22_fleet: FAIL: peak RSS %.1f MiB above the %.1f "
                 "MiB ceiling — a session materialized somewhere\n",
                 rss_mb, max_rss_mb);
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return guarded_main("bench_e22_fleet", /*install_signals=*/true, argc, argv,
                      run_bench);
}
