/// \file bench_service.cpp
/// Service throughput driver: push >=10^5 streamed fleet sessions through an
/// in-process mobcached (docs/SERVICE.md) and hold it to a sessions/s floor.
/// Requests are split across several JSONL files, submitted with the inbox
/// rename idiom, and drained in once-mode — so the bench exercises the whole
/// daemon path (scan, parse, execute, atomic response publication, metrics
/// snapshots), not just run_fleet().
///
/// Flags (on top of the shared --jobs=N):
///   --sessions=N          total fleet sessions across all requests
///                         (default 100000)
///   --requests=N          request files to split them over (default 8)
///   --mean-accesses=N     population mean session length (default
///                         MOBCACHE_TRACE_LEN, else 2000)
///   --seed=N              base seed (request i uses seed+i)
///   --min-sessions-per-s=X   gate: exit 1 below this throughput
///   --max-peak-rss-mb=X      gate: exit 1 above this peak RSS
///
/// The BENCH "results" section reports session/record totals — pure
/// functions of (mix, sessions, seed), so byte-identical for every --jobs
/// value (the fleet determinism contract, src/exp/fleet.hpp).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "exp/bench_harness.hpp"
#include "exp/fleet.hpp"
#include "exp/report.hpp"
#include "service/service.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

static int run_bench(int argc, char** argv) {
  namespace fs = std::filesystem;
  const unsigned jobs = bench_jobs(argc, argv);
  BenchReport bench("service", jobs);
  print_banner("SVC", "mobcached streamed-session throughput");

  const std::uint64_t total_sessions =
      bench_flag_u64(argc, argv, "--sessions", 100'000);
  const std::uint64_t requests =
      bench_flag_u64(argc, argv, "--requests", 8, /*min=*/1);
  const std::uint64_t mean =
      bench_flag_u64(argc, argv, "--mean-accesses", bench_trace_len(2'000));
  const std::uint64_t seed = bench_flag_u64(argc, argv, "--seed", 1);
  // Gate floors, parsed before the run so a bad value fails fast.
  const double min_rate =
      bench_flag_double(argc, argv, "--min-sessions-per-s", 0.0);
  const double max_rss_mb =
      bench_flag_double(argc, argv, "--max-peak-rss-mb", 0.0);

  const std::string dir = results_path("bench_service_dir");
  std::error_code ec;
  fs::remove_all(dir, ec);  // fresh daemon state: throughput, not warm cache

  ServiceConfig cfg;
  cfg.dir = dir;
  cfg.jobs = jobs;
  cfg.once = true;
  MobcacheDaemon daemon(cfg);

  // Submit all request files up front with the rename idiom, then drain.
  std::uint64_t submitted = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    std::uint64_t n = total_sessions / requests;
    if (i == requests - 1) n = total_sessions - submitted;
    submitted += n;
    char name[32];
    std::snprintf(name, sizeof name, "req-%04llu.jsonl",
                  static_cast<unsigned long long>(i));
    const std::string body =
        "{\"id\":\"bench-" + std::to_string(i) +
        "\",\"kind\":\"fleet\",\"scheme\":\"dpstt\",\"sessions\":" +
        std::to_string(n) + ",\"seed\":" + std::to_string(seed + i) +
        ",\"mean_accesses\":" + std::to_string(mean) + "}\n";
    atomic_publish((fs::path(daemon.inbox_dir()) / name).string(), body,
                   std::string("submit-") + name);
  }

  reset_fleet_counters();
  daemon.run();

  const ServiceStats stats = daemon.stats();
  if (stats.requests_rejected != 0 || stats.requests_served != requests) {
    std::fprintf(stderr,
                 "bench_service: FAIL: %llu/%llu requests served, %llu "
                 "rejected — see %s\n",
                 static_cast<unsigned long long>(stats.requests_served),
                 static_cast<unsigned long long>(requests),
                 static_cast<unsigned long long>(stats.requests_rejected),
                 daemon.outbox_dir().c_str());
    return 1;
  }
  const FleetCounters fleet = fleet_counters();
  const double wall = bench.wall_ms();
  const double sessions_per_s =
      wall > 0.0
          ? static_cast<double>(fleet.sessions_simulated) * 1e3 / wall
          : 0.0;

  std::printf(
      "\n%llu sessions (%llu records) over %llu requests, %.1f sessions/s, "
      "peak RSS %.1f MiB\n",
      static_cast<unsigned long long>(fleet.sessions_simulated),
      static_cast<unsigned long long>(fleet.session_records),
      static_cast<unsigned long long>(requests), sessions_per_s,
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));

  bench.set_points(fleet.sessions_simulated);
  bench.add_run_fact("sessions_per_s", sessions_per_s);
  bench.add_run_fact("requests", static_cast<double>(requests));
  bench.add_result("sessions", static_cast<double>(fleet.sessions_simulated));
  bench.add_result("records", static_cast<double>(fleet.session_records));
  bench.write();

  if (fleet.sessions_simulated != total_sessions) {
    std::fprintf(stderr,
                 "bench_service: FAIL: simulated %llu of %llu requested "
                 "sessions\n",
                 static_cast<unsigned long long>(fleet.sessions_simulated),
                 static_cast<unsigned long long>(total_sessions));
    return 1;
  }

  // In-binary CI gates (CI passes the floors; local runs skip them).
  if (min_rate > 0.0 && sessions_per_s < min_rate) {
    std::fprintf(stderr,
                 "bench_service: FAIL: %.1f sessions/s below the %.1f "
                 "floor\n",
                 sessions_per_s, min_rate);
    return 1;
  }
  const double rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  if (max_rss_mb > 0.0 && rss_mb > max_rss_mb) {
    std::fprintf(stderr,
                 "bench_service: FAIL: peak RSS %.1f MiB above the %.1f MiB "
                 "ceiling — a session materialized somewhere\n",
                 rss_mb, max_rss_mb);
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return guarded_main("bench_service", /*install_signals=*/true, argc, argv,
                      run_bench);
}
