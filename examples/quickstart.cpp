/// \file quickstart.cpp
/// Minimal tour of the mobcache API:
///   1. generate a synthetic mobile workload trace,
///   2. run it through an L2 design,
///   3. read back miss rate, energy and timing.
///
/// Usage: quickstart [records-per-app]   (default 1,000,000)

#include <iostream>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

static int example_main(int argc, char** argv) {
  const std::uint64_t records =
      argc > 1 ? parse_u64("records-per-app", argv[1], 1) : 1'000'000;

  std::cout << "mobcache quickstart: every app through the stock shared "
               "2 MB SRAM L2 and the paper's DP-STT design\n\n";

  TablePrinter table({"app", "kernel L2 share", "base miss", "dpstt miss",
                      "cache energy vs base", "exec time vs base"});

  for (AppId id : all_apps()) {
    // 1. Workload: a synthetic interactive-app trace (user + kernel
    //    interleaved), deterministic in the seed.
    const Trace trace = generate_app_trace(id, records, /*seed=*/42);

    // 2. Designs: factory defaults follow the paper's configuration.
    SimResult base = simulate(trace, build_scheme(SchemeKind::BaselineSram));
    SimResult dpstt = simulate(trace, build_scheme(SchemeKind::DynamicStt));

    // 3. Results.
    const double e_ratio =
        dpstt.l2_energy.cache_nj() / base.l2_energy.cache_nj();
    const double t_ratio = static_cast<double>(dpstt.cycles) /
                           static_cast<double>(base.cycles);
    table.add_row({app_name(id), format_percent(base.l2_kernel_fraction()),
                   format_percent(base.l2_miss_rate()),
                   format_percent(dpstt.l2_miss_rate()),
                   format_double(e_ratio, 3), format_double(t_ratio, 3)});
  }

  table.print();
  std::cout << "\nInteractive apps should show >40% kernel L2 share "
               "(the paper's motivating observation) and a large cache-"
               "energy reduction under DP-STT.\n";
  return 0;
}

int main(int argc, char** argv) {
  // A malformed numeric argument exits 2 naming it (common/env.hpp).
  return guarded_main("quickstart", /*install_signals=*/false, argc,
                      argv, example_main);
}
