/// \file bench_e1_kernel_share.cpp
/// E1 (paper Fig. 1) — the motivating observation: in interactive
/// smartphone apps, more than 40% of L2 accesses are OS-kernel accesses;
/// compute-bound apps show almost none.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

static int run(ExperimentContext& ctx) {
  print_banner("E1", "Kernel share of L2 accesses per application");
  const std::uint64_t len = bench_trace_len();

  TablePrinter t({"app", "class", "trace kernel share", "L1I miss", "L1D miss",
                  "L2 accesses", "L2 kernel share"});
  double interactive_sum = 0.0;
  int interactive_n = 0;

  // One task per app: it generates its trace, simulates the one design and
  // frees the trace, so --jobs=1 keeps one trace resident at a time.
  const std::vector<AppId> apps = all_apps();
  const auto rows =
      SweepExecutor(ctx.flags.jobs).map(apps.size(), [&](std::size_t i) {
        const Trace trace = generate_app_trace(apps[i], len, 42);
        return std::pair{
            trace.summarize().kernel_fraction(),
            simulate(trace, build_scheme(SchemeKind::BaselineSram))};
      });
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& [trace_kernel_share, r] = rows[i];
    const bool interactive = make_app(apps[i]).interactive;
    if (interactive) {
      interactive_sum += r.l2_kernel_fraction();
      ++interactive_n;
    }
    t.add_row({app_name(apps[i]), interactive ? "interactive" : "compute",
               format_percent(trace_kernel_share),
               format_percent(r.l1i.miss_rate()),
               format_percent(r.l1d.miss_rate()),
               format_count(r.l2.total_accesses()),
               format_percent(r.l2_kernel_fraction())});
  }
  const double interactive_mean = interactive_sum / interactive_n;
  t.add_row({"interactive mean", "", "", "", "", "",
             format_percent(interactive_mean)});

  emit(t, "e1_kernel_share.csv");
  std::printf(
      "\nPaper claim: >40%% of L2 accesses are kernel accesses in "
      "interactive apps.\nMeasured interactive mean: %s\n",
      format_percent(interactive_mean).c_str());

  ctx.report.set_points(apps.size());
  ctx.report.add_result("interactive_mean_l2_kernel_share", interactive_mean);
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e1_kernel_share", argc, argv, run);
}
