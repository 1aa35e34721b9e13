/// \file bench_e9_headline.cpp
/// E9 (paper Fig. 8 / Table 3) — the headline comparison: normalized cache
/// energy and execution time for every scheme over the interactive suite,
/// plus the compute-bound controls as an appendix.
///
/// Every (scheme × app) cell is keyed by its grid index, so every job count
/// emits identical tables and JSON, and every cell is memoized in a result
/// store when one is selected. BENCH_e9_headline.json records the wall
/// time, records/s and the two headline designs' normalized geomeans.

#include <stdexcept>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "exp/json_export.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

using namespace mobcache;

namespace {

/// Trace records simulated across every cell of `grid`.
std::uint64_t records_of(const std::vector<SchemeSuiteResult>& grid) {
  std::uint64_t n = 0;
  for (const SchemeSuiteResult& r : grid)
    for (const SimResult& s : r.per_workload) n += s.records;
  return n;
}

}  // namespace

static int run(ExperimentContext& ctx) {
  print_banner("E9", "Headline comparison across all schemes");
  const std::uint64_t len = bench_trace_len();

  ExperimentRunner runner(interactive_apps(), len, 42);
  ctx.configure(runner);
  const std::vector<SchemeSuiteResult> results = runner.run_headline();

  emit(headline_table(results), "e9_headline.csv");
  const std::string json_path = results_path("e9_headline.json");
  if (!write_experiment_json("E9", results, "e9_headline.json"))
    throw std::runtime_error("cannot write '" + json_path + "'");
  std::printf("[json] %s\n", json_path.c_str());

  // Per-app normalized cache energy for the two headline designs.
  const SchemeSuiteResult& base = results[0];
  auto find = [&](SchemeKind k) -> const SchemeSuiteResult& {
    for (const auto& r : results)
      if (r.kind == k) return r;
    return base;
  };
  const SchemeSuiteResult& mrstt = find(SchemeKind::StaticPartMrstt);
  const SchemeSuiteResult& dpstt = find(SchemeKind::DynamicStt);

  TablePrinter per({"app", "SP-MRSTT energy", "SP-MRSTT time",
                    "DP-STT energy", "DP-STT time"});
  for (std::size_t w = 0; w < runner.apps().size(); ++w) {
    const SimResult& b = base.per_workload[w];
    auto e = [&](const SchemeSuiteResult& r) {
      return format_double(
          r.per_workload[w].l2_energy.cache_nj() / b.l2_energy.cache_nj(), 3);
    };
    auto c = [&](const SchemeSuiteResult& r) {
      return format_double(static_cast<double>(r.per_workload[w].cycles) /
                               static_cast<double>(b.cycles),
                           3);
    };
    per.add_row({b.workload, e(mrstt), c(mrstt), e(dpstt), c(dpstt)});
  }
  std::printf("\nPer-app view of the two headline designs:\n");
  emit(per, "e9_headline_per_app.csv");

  // Compute controls: partitioning must not hurt kernel-light workloads.
  ExperimentRunner compute({AppId::ComputeFft, AppId::ComputeMatmul}, len, 42);
  ctx.configure(compute);
  std::vector<SchemeSuiteResult> cres = compute.run_schemes(
      {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt,
       SchemeKind::DynamicStt});
  ExperimentRunner::normalize(cres);
  std::printf("\nCompute-bound controls (fft, matmul):\n");
  emit(headline_table(cres), "e9_headline_compute.csv");

  std::printf(
      "\nPaper claims (abstract): static technique −75%% cache energy at "
      "+2%% time;\ndynamic technique −85%% at +3%%.\nMeasured geomeans: "
      "SP-MRSTT %.0f%% reduction at +%.1f%%; DP-STT %.0f%% at +%.1f%%.\n",
      (1.0 - mrstt.norm_cache_energy) * 100.0,
      (mrstt.norm_exec_time - 1.0) * 100.0,
      (1.0 - dpstt.norm_cache_energy) * 100.0,
      (dpstt.norm_exec_time - 1.0) * 100.0);

  const std::uint64_t cells =
      (results.size() * runner.apps().size()) +
      (cres.size() * compute.apps().size());
  BenchReport& bench = ctx.report;
  bench.set_points(cells);
  const double wall_s = bench.wall_ms() / 1e3;
  const double records = static_cast<double>(records_of(results) +
                                             records_of(cres));
  bench.add_run_fact("records_per_sec",
                     wall_s > 0.0 ? records / wall_s : 0.0);
  bench.add_result("spmrstt_norm_cache_energy", mrstt.norm_cache_energy);
  bench.add_result("spmrstt_norm_exec_time", mrstt.norm_exec_time);
  bench.add_result("dpstt_norm_cache_energy", dpstt.norm_cache_energy);
  bench.add_result("dpstt_norm_exec_time", dpstt.norm_exec_time);
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e9_headline", argc, argv, run);
}
