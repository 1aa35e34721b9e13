/// \file bench_e8_dynamic_trace.cpp
/// E8 (paper Fig. 7) — the dynamic partition in action: per-epoch way
/// allocation over time on a phase-rich workload, plus reconfiguration
/// statistics for every app. Each app is simulated once, as one task that
/// generates its trace, so --jobs=1 keeps one trace resident at a time; the
/// browser's time series comes from its summary run.

#include <algorithm>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

struct RunOut {
  std::vector<AllocationSample> history;
  std::uint64_t reconfig_writebacks = 0;
  WayAllocation final_alloc;
  double avg_enabled = 0.0;
};

/// E9's DP-STT through a direct simulate(), not a runner grid: the rows
/// read the design's allocation history after the run.
RunOut run_dp(const Trace& trace) {
  DynamicPartitionedL2 dp(dynamic_scheme_config(SchemeKind::DynamicStt));
  simulate(trace, dp);

  RunOut out;
  out.history = dp.allocation_history();
  out.reconfig_writebacks = dp.reconfig_writebacks();
  out.final_alloc = dp.allocation();
  out.avg_enabled = dp.avg_enabled_bytes();
  return out;
}

}  // namespace

static int run(ExperimentContext& ctx) {
  print_banner("E8", "Dynamic partition allocation trace");
  const std::uint64_t len = bench_trace_len();

  const std::vector<AppId> apps = interactive_apps();
  const std::vector<RunOut> runs =
      SweepExecutor(ctx.flags.jobs).map(apps.size(), [&](std::size_t i) {
        return run_dp(generate_app_trace(apps[i], len, 42));
      });

  // Detailed time series for the phase-rich browser workload.
  const auto browser = std::find(apps.begin(), apps.end(), AppId::Browser);
  const RunOut& b = runs[static_cast<std::size_t>(browser - apps.begin())];
  TablePrinter series({"time (ms)", "user ways", "kernel ways", "off ways",
                       "enabled"});
  const std::size_t stride = std::max<std::size_t>(1, b.history.size() / 32);
  for (std::size_t i = 0; i < b.history.size(); i += stride) {
    const AllocationSample& s = b.history[i];
    const std::uint32_t off = 16 - s.user_ways - s.kernel_ways;
    series.add_row({format_double(static_cast<double>(s.cycle) / 1e6, 2),
                    std::to_string(s.user_ways), std::to_string(s.kernel_ways),
                    std::to_string(off),
                    format_bytes((s.user_ways + s.kernel_ways) * 128ull
                                 << 10)});
  }
  std::printf("browser allocation over time (%zu reconfigurations total):\n",
              b.history.size());
  emit(series, "e8_dynamic_trace_browser.csv");

  // Summary across the suite.
  TablePrinter sum({"app", "reconfigs", "flush writebacks", "final (u/k)",
                    "avg enabled"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppId id = apps[i];
    const RunOut& r = runs[i];
    sum.add_row({app_name(id), format_count(r.history.size()),
                 format_count(r.reconfig_writebacks),
                 std::to_string(r.final_alloc.user_ways) + "/" +
                     std::to_string(r.final_alloc.kernel_ways),
                 format_bytes(static_cast<std::uint64_t>(r.avg_enabled))});
  }
  std::printf("\n");
  emit(sum, "e8_dynamic_trace_summary.csv");

  std::printf(
      "\nReading: the controller tracks phase changes (page-load vs idle "
      "demand), keeps the\ntwo segments sized to their current working "
      "sets, and powers the rest off.\n");

  ctx.report.set_points(apps.size());
  ctx.report.add_result("browser_reconfigs",
                        static_cast<double>(b.history.size()));
  ctx.report.add_result("browser_avg_enabled_bytes", b.avg_enabled);
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e8_dynamic_trace", argc, argv, run);
}
