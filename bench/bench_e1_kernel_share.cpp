/// \file bench_e1_kernel_share.cpp
/// E1 (paper Fig. 1) — the motivating observation: in interactive
/// smartphone apps, more than 40% of L2 accesses are OS-kernel accesses;
/// compute-bound apps show almost none.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "exp/report.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

int main() {
  print_banner("E1", "Kernel share of L2 accesses per application");
  const std::uint64_t len = bench_trace_len();

  TablePrinter t({"app", "class", "trace kernel share", "L1I miss", "L1D miss",
                  "L2 accesses", "L2 kernel share"});
  double interactive_sum = 0.0;
  int interactive_n = 0;

  // A direct simulate() loop, not a runner grid: one design per trace, so
  // only one trace is resident at a time.
  for (AppId id : all_apps()) {
    const Trace trace = generate_app_trace(id, len, 42);
    const TraceSummary ts = trace.summarize();
    const SimResult r = simulate(trace, build_scheme(SchemeKind::BaselineSram));

    const bool interactive = make_app(id).interactive;
    if (interactive) {
      interactive_sum += r.l2_kernel_fraction();
      ++interactive_n;
    }
    t.add_row({app_name(id), interactive ? "interactive" : "compute",
               format_percent(ts.kernel_fraction()),
               format_percent(r.l1i.miss_rate()),
               format_percent(r.l1d.miss_rate()),
               format_count(r.l2.total_accesses()),
               format_percent(r.l2_kernel_fraction())});
  }
  t.add_row({"interactive mean", "", "", "", "", "",
             format_percent(interactive_sum / interactive_n)});

  emit(t, "e1_kernel_share.csv");
  std::printf(
      "\nPaper claim: >40%% of L2 accesses are kernel accesses in "
      "interactive apps.\nMeasured interactive mean: %s\n",
      format_percent(interactive_sum / interactive_n).c_str());
  return 0;
}
