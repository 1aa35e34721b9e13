/// \file bench_e6_retention_sweep.cpp
/// E6 (paper Fig. 5) — retention-class assignment sweep for the static
/// partition: all 3×3 (user, kernel) class pairings, validating the
/// advisor's (MID, LO) pick as the energy/performance sweet spot.
///
/// Sweep points (the baseline plus the nine pairings) run as one
/// run_designs() grid, which drives all pairings from one L1 pass per
/// workload (docs/SWEEP_ENGINE.md): pass `--jobs=N` (or MOBCACHE_JOBS) to
/// spread them over worker threads. Results are keyed by point index, so
/// the emitted table, CSV and JSON are byte-identical for every job count.
///
/// Fault supervision (docs/RELIABILITY.md): --keep-going turns a failing
/// pairing into a manifest entry (the table/CSV/JSON simply omit that row)
/// instead of aborting, and --fail-points=i,j injects chaos faults at those
/// point indices for testing the path. SIGINT/SIGTERM drain in-flight
/// points and exit 75 (resumable against the same --store-dir).

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "exp/parallel.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

using namespace mobcache;

static int run_bench(int argc, char** argv) {
  const std::size_t n_points = 1 + 3 * 3;  // the baseline + 9 pairings
  const unsigned jobs = bench_jobs(argc, argv);
  const bool keep_going = bench_keep_going(argc, argv);
  const std::vector<std::size_t> fail_points =
      bench_fail_points(argc, argv, n_points);
  const std::unique_ptr<ResultStore> store = bench_result_store(argc, argv);
  if (store) store->set_retry_failed(bench_retry_failed(argc, argv));
  BenchReport bench("e6_retention_sweep", jobs);
  print_banner("E6", "Multi-retention pairing sweep for the static design");
  // Session-length traces (see E5): shorter runs hide user-block expiry
  // under LO retention. A four-app subset keeps the 9-pairing sweep fast.
  const std::uint64_t len = bench_trace_len(6'000'000);

  ExperimentRunner runner(
      {AppId::Launcher, AppId::Browser, AppId::Email, AppId::Maps}, len, 42);
  runner.result_store = store.get();
  runner.sim_options.point_deadline_ms = bench_point_deadline_ms(argc, argv);
  runner.jobs = jobs;

  const RetentionClass classes[] = {RetentionClass::Lo, RetentionClass::Mid,
                                    RetentionClass::Hi};

  // Spec 0 is the SRAM baseline; specs 1..9 the (user, kernel) pairings
  // in row-major class order. Each cell depends only on its index.
  std::vector<DesignSpec> specs;
  specs.reserve(n_points);
  specs.push_back(scheme_design(SchemeKind::BaselineSram));
  for (std::size_t i = 1; i < n_points; ++i) {
    SchemeParams p;
    p.mrstt_user = classes[(i - 1) / 3];
    p.mrstt_kernel = classes[(i - 1) % 3];
    specs.push_back(scheme_design(SchemeKind::StaticPartMrstt, p));
  }
  // Fail-fast (the default, keep_going == false): any failure propagates to
  // guarded_main, so every outcome below holds a value.
  std::vector<PointOutcome<SchemeSuiteResult>> cells =
      runner.run_designs_outcomes(specs, keep_going, [&](std::size_t i) {
        chaos_maybe_fail(fail_points, i);
      });
  bench.set_points(static_cast<std::uint64_t>(n_points));

  auto pair_label = [&](std::size_t i) -> std::string {
    if (i == 0) return "baseline";
    return std::string(to_string(classes[(i - 1) / 3])) + "/" +
           std::string(to_string(classes[(i - 1) % 3]));
  };
  for (std::size_t i = 0; i < n_points; ++i) {
    if (cells[i].ok()) continue;
    std::fprintf(stderr, "e6: point failed: %s: [%s] %s\n",
                 pair_label(i).c_str(), cells[i].failure->error_type.c_str(),
                 cells[i].failure->message.c_str());
    bench.add_point_failure(*cells[i].failure, pair_label(i));
  }
  if (!cells[0].ok()) {
    // Every pairing is normalized against the baseline point; without it
    // the partial results cannot be interpreted, keep-going or not.
    SimError err(SimErrorKind::Internal,
                 "baseline point failed, cannot normalize: " +
                     cells[0].failure->message);
    err.with_point(0);
    throw err;
  }
  const SchemeSuiteResult& base_cell = *cells[0].value;

  TablePrinter t({"user class", "kernel class", "L2 miss",
                  "norm cache energy", "norm exec time", "refresh uJ",
                  "expired blocks"});

  struct Candidate {
    double energy;
    double time;
    std::uint64_t expired;
    std::string pair;
  };
  std::vector<Candidate> candidates;

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("e6_retention_sweep");
  json.key("points");
  json.begin_array();
  for (std::size_t i = 1; i < n_points; ++i) {
    if (!cells[i].ok()) continue;  // failed pairings live in the manifest
    const SchemeSuiteResult& cell = *cells[i].value;
    const RetentionClass u = classes[(i - 1) / 3];
    const RetentionClass k = classes[(i - 1) % 3];
    std::vector<SchemeSuiteResult> v{base_cell, cell};
    ExperimentRunner::normalize(v);

    double refresh_nj = 0.0;
    std::uint64_t expired = 0;
    for (const SimResult& s : cell.per_workload) {
      refresh_nj += s.l2_energy.refresh_nj;
      expired += s.l2.expired_blocks;
    }
    candidates.push_back(
        {v[1].norm_cache_energy, v[1].norm_exec_time, expired,
         std::string(to_string(u)) + " / " + std::string(to_string(k))});
    t.add_row({std::string(to_string(u)), std::string(to_string(k)),
               format_percent(cell.avg_miss_rate),
               format_double(v[1].norm_cache_energy, 3),
               format_double(v[1].norm_exec_time, 3),
               format_double(refresh_nj / 1e3, 1), format_count(expired)});

    json.begin_object();
    json.key("user").value(std::string(to_string(u)));
    json.key("kernel").value(std::string(to_string(k)));
    json.key("miss_rate").value(cell.avg_miss_rate);
    json.key("norm_cache_energy").value(v[1].norm_cache_energy);
    json.key("norm_exec_time").value(v[1].norm_exec_time);
    json.key("refresh_uj").value(refresh_nj / 1e3);
    json.key("expired_blocks").value(expired);
    json.end_object();
  }
  json.end_array();

  emit(t, "e6_retention_sweep.csv");

  // Selection rule: among pairings within 1% (absolute) of the lowest
  // normalized energy, prefer the best execution time. Expiry counts are
  // reported so the reader can see why pushing the user segment to LO buys
  // ~nothing: its cheap writes are paid back in user-block expiry misses.
  double min_e = 1e9;
  for (const Candidate& c : candidates) min_e = std::min(min_e, c.energy);
  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    if (c.energy > min_e + 0.01) continue;
    if (best == nullptr || c.time < best->time) best = &c;
  }
  if (best == nullptr) {
    // Only reachable under --keep-going when every pairing point failed.
    throw SimError(SimErrorKind::Internal,
                   "all pairing points failed; no candidate to select");
  }
  std::printf(
      "\nChosen pairing (best time within 1%% of best energy): %s — the "
      "paper's\nshort-retention kernel segment plus a longer-retention user "
      "segment. (HI,HI)\nwastes write energy; (LO,*) on the user side trades "
      "its cheaper writes for\nuser-block expiry misses.\n",
      best->pair.c_str());

  json.key("chosen_pairing").value(best->pair);
  json.key("min_norm_energy").value(min_e);
  json.end_object();
  write_json_results(json, "e6_retention_sweep.json");

  bench.add_result("min_norm_energy", min_e);
  bench.add_result("chosen_norm_energy", best->energy);
  bench.add_result("chosen_norm_time", best->time);
  bench.add_result("base_miss_rate", base_cell.avg_miss_rate);
  if (store) bench.set_store_stats(store->stats());
  bench.write();
  return 0;
}

int main(int argc, char** argv) {
  return guarded_main("bench_e6_retention_sweep", /*install_signals=*/true,
                      argc, argv, run_bench);
}
