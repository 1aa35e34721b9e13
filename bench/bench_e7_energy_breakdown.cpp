/// \file bench_e7_energy_breakdown.cpp
/// E7 (paper Fig. 6) — where the energy goes: leakage / array reads /
/// array writes / refresh / DRAM, per scheme, summed over the interactive
/// suite and normalized to the baseline's cache energy.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

using namespace mobcache;

int main() {
  print_banner("E7", "Energy breakdown per scheme (suite total)");
  const std::uint64_t len = bench_trace_len();

  ExperimentRunner runner(interactive_apps(), len, 42);

  struct Row {
    std::string name;
    EnergyBreakdown e;
  };
  std::vector<Row> rows;
  for (const SchemeSuiteResult& r : runner.run_schemes(headline_schemes())) {
    EnergyBreakdown sum;
    for (const SimResult& s : r.per_workload) sum += s.l2_energy;
    rows.push_back({r.name, sum});
  }
  const double base_cache = rows.front().e.cache_nj();

  TablePrinter t({"scheme", "leakage", "reads", "writes", "refresh",
                  "cache total", "DRAM", "cache vs base"});
  for (const Row& r : rows) {
    auto uj = [](double nj) { return format_double(nj / 1e3, 1) + " uJ"; };
    t.add_row({r.name, uj(r.e.leakage_nj), uj(r.e.read_nj), uj(r.e.write_nj),
               uj(r.e.refresh_nj), uj(r.e.cache_nj()), uj(r.e.dram_nj),
               format_percent(r.e.cache_nj() / base_cache)});
  }
  emit(t, "e7_energy_breakdown.csv");

  // Percentage view (the stacked-bar figure as a table).
  TablePrinter p({"scheme", "leakage %", "reads %", "writes %", "refresh %"});
  for (const Row& r : rows) {
    const double c = r.e.cache_nj();
    p.add_row({r.name, format_percent(r.e.leakage_nj / c),
               format_percent(r.e.read_nj / c),
               format_percent(r.e.write_nj / c),
               format_percent(r.e.refresh_nj / c)});
  }
  std::printf("\nComposition of each scheme's own cache energy:\n");
  emit(p, "e7_energy_composition.csv");

  std::printf(
      "\nReading: the SRAM baseline is leakage-dominated; partitioning + "
      "shrinking attacks\nexactly that term, and STT-RAM removes most of "
      "what remains at the cost of a\nvisible write/refresh component.\n");
  return 0;
}
