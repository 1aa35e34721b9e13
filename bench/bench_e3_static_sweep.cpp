/// \file bench_e3_static_sweep.cpp
/// E3 (paper Fig. 3) — shrinking the statically partitioned L2: miss rate,
/// energy and execution time of (user+kernel) segment sizings against the
/// shared 2 MB baseline. Shows the knee the paper's chosen config sits on.
///
/// The baseline plus the seven sizings run as one run_designs() grid, which
/// runs each trace's L1 front end once for all sizings (docs/SWEEP_ENGINE.md).
/// `--jobs=N` / MOBCACHE_JOBS pick the worker count; it changes no emitted
/// number.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "exp/parallel.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

using namespace mobcache;

namespace {

struct Sizing {
  std::uint64_t user_kb;
  std::uint32_t user_assoc;
  std::uint64_t kernel_kb;
  std::uint32_t kernel_assoc;
};

}  // namespace

static int run_bench(int argc, char** argv) {
  const unsigned jobs = bench_jobs(argc, argv);
  const std::unique_ptr<ResultStore> store = bench_result_store(argc, argv);
  BenchReport bench("e3_static_sweep", jobs);
  print_banner("E3",
               "Static partition size sweep: miss rate vs. total capacity");
  const std::uint64_t len = bench_trace_len();

  ExperimentRunner runner(interactive_apps(), len, 42);
  runner.result_store = store.get();
  runner.jobs = jobs;

  const std::vector<Sizing> sweep = {
      {256, 8, 128, 8},  {512, 8, 128, 8},   {512, 8, 256, 8},
      {768, 12, 256, 8}, {1024, 8, 256, 8},  {1024, 8, 512, 8},
      {1536, 12, 512, 8},
  };

  // Spec 0 is the shared baseline; spec i (>0) the sizing sweep[i-1].
  std::vector<DesignSpec> specs;
  specs.reserve(1 + sweep.size());
  specs.push_back(scheme_design(SchemeKind::BaselineSram));
  for (const Sizing& s : sweep) {
    DesignSpec d;
    d.name = "sp";
    d.build = [s] {
      StaticPartitionConfig pc;
      pc.user = sram_segment(s.user_kb << 10, s.user_assoc);
      pc.kernel = sram_segment(s.kernel_kb << 10, s.kernel_assoc);
      return std::make_unique<StaticPartitionedL2>(pc);
    };
    // Design hash covers everything the builder bakes in: both SRAM
    // segment geometries (sram_segment derives the rest from these).
    d.design_hash = ContentHasher()
                        .mix(std::string("e3-sp-sram"))
                        .mix(s.user_kb << 10)
                        .mix(std::uint64_t{s.user_assoc})
                        .mix(s.kernel_kb << 10)
                        .mix(std::uint64_t{s.kernel_assoc})
                        .digest();
    specs.push_back(std::move(d));
  }
  const std::vector<SchemeSuiteResult> cells = runner.run_designs(specs);
  bench.set_points(static_cast<std::uint64_t>(cells.size()));
  const SchemeSuiteResult& base = cells[0];

  TablePrinter t({"config (user+kernel)", "total", "vs 2MB", "L2 miss",
                  "norm cache energy", "norm exec time"});
  t.add_row({"shared 2MB baseline", "2 MB", "100.0%",
             format_percent(base.avg_miss_rate), "1.000", "1.000"});

  double knee_energy = 1.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const Sizing& s = sweep[i];
    std::vector<SchemeSuiteResult> v{base, cells[1 + i]};
    ExperimentRunner::normalize(v);
    const std::uint64_t total = (s.user_kb + s.kernel_kb) << 10;
    if (s.user_kb == 1024 && s.kernel_kb == 256)
      knee_energy = v[1].norm_cache_energy;
    t.add_row({std::to_string(s.user_kb) + "K+" + std::to_string(s.kernel_kb) +
                   "K",
               format_bytes(total),
               format_percent(static_cast<double>(total) / (2ull << 20)),
               format_percent(cells[1 + i].avg_miss_rate),
               format_double(v[1].norm_cache_energy, 3),
               format_double(v[1].norm_exec_time, 3)});
  }

  emit(t, "e3_static_sweep.csv");
  std::printf(
      "\nReading: once each segment covers its mode's reused working set "
      "(~1 MB+256 KB here),\nfurther capacity buys almost nothing — the "
      "paper's 'shrink at similar miss rate' claim.\n");

  bench.add_result("base_miss_rate", base.avg_miss_rate);
  bench.add_result("knee_norm_energy", knee_energy);
  if (store) bench.set_store_stats(store->stats());
  bench.write();
  return 0;
}

int main(int argc, char** argv) {
  return guarded_main("bench_e3_static_sweep", /*install_signals=*/true, argc, argv,
                      run_bench);
}
