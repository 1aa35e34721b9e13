/// \file multicore_demo.cpp
/// Two phone cores, one L2: shows the future-work extension end to end.
/// Core 0 runs the browser, core 1 plays music; the grouped dynamic L2
/// gives each core its own user segment and shares one kernel segment.
///
/// Usage: multicore_demo [records-per-core]

#include <cstdio>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "sim/multicore.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

static int example_main(int argc, char** argv) {
  const std::uint64_t records =
      argc > 1 ? parse_u64("records-per-core", argv[1], 1) : 800'000;

  std::printf("=== multicore demo: browser on core 0, audio on core 1 ===\n\n");
  std::vector<Trace> traces;
  traces.push_back(generate_app_trace(AppId::Browser, records, 42));
  traces.push_back(generate_app_trace(AppId::AudioPlayer, records, 43));

  // The conventional SoC: one mode-oblivious 2 MB SRAM L2.
  auto shared = std::make_unique<ModeOnlyL2Adapter>(
      build_scheme(SchemeKind::BaselineSram));
  const MulticoreResult base = simulate_multicore(traces, std::move(shared));

  // The extension: shared kernel segment + per-core user segments, all
  // short-retention STT-RAM, resized per epoch.
  MulticoreL2Config mc;
  mc.cache.name = "L2";
  mc.cache.size_bytes = 2ull << 20;
  mc.cache.assoc = 16;
  mc.cores = 2;
  MulticoreDynamicL2 grouped(mc);
  const MulticoreResult dp = simulate_multicore(traces, grouped);

  TablePrinter t({"metric", "shared SRAM 2MB", "grouped dynamic STT"});
  t.add_row({"L2 miss rate", format_percent(base.l2_miss_rate()),
             format_percent(dp.l2_miss_rate())});
  t.add_row({"makespan (cycles)", format_count(base.makespan),
             format_count(dp.makespan)});
  t.add_row({"avg enabled capacity", format_bytes(2ull << 20),
             format_bytes(static_cast<std::uint64_t>(
                 dp.l2_avg_enabled_bytes))});
  t.add_row({"cache energy (uJ)",
             format_double(base.l2_energy.cache_nj() / 1e3, 1),
             format_double(dp.l2_energy.cache_nj() / 1e3, 1)});
  t.add_row({"cache energy vs shared", "1.000",
             format_double(dp.l2_energy.cache_nj() /
                               base.l2_energy.cache_nj(), 3)});
  t.print();

  std::printf("\nfinal allocation: kernel %u ways", grouped.group_ways(0));
  for (std::uint32_t c = 0; c < mc.cores; ++c)
    std::printf(", core%u user %u ways", c, grouped.group_ways(1 + c));
  std::printf(", %u ways off (%s reconfigurations)\n",
              16 - grouped.group_ways(0) - grouped.group_ways(1) -
                  grouped.group_ways(2),
              format_count(grouped.reconfigurations()).c_str());

  std::printf("\nper-core view:\n");
  TablePrinter pc({"core", "workload", "cycles", "L1D miss"});
  for (std::size_t c = 0; c < dp.cores.size(); ++c) {
    pc.add_row({std::to_string(c), dp.cores[c].workload,
                format_count(dp.cores[c].cycles),
                format_percent(dp.cores[c].l1d.miss_rate())});
  }
  pc.print();
  return 0;
}

int main(int argc, char** argv) {
  // A malformed numeric argument exits 2 naming it (common/env.hpp).
  return guarded_main("multicore_demo", /*install_signals=*/false, argc,
                      argv, example_main);
}
