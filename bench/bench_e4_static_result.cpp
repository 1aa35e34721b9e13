/// \file bench_e4_static_result.cpp
/// E4 (paper Table 2) — the chosen static configuration, per app: the
/// SP-SRAM and SP-MRSTT designs against the 2 MB SRAM baseline.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

using namespace mobcache;

int main() {
  print_banner("E4", "Chosen static partition: per-app results");
  const std::uint64_t len = bench_trace_len();

  ExperimentRunner runner(interactive_apps(), len, 42);
  std::vector<SchemeSuiteResult> v = runner.run_schemes(
      {SchemeKind::BaselineSram, SchemeKind::StaticPartSram,
       SchemeKind::StaticPartMrstt});
  ExperimentRunner::normalize(v);

  const SchemeParams defaults;
  std::printf("Configuration: user %s %u-way + kernel %s %u-way (total %s; "
              "baseline 2 MB 16-way)\n\n",
              format_bytes(defaults.sp_user_bytes).c_str(),
              defaults.sp_user_assoc,
              format_bytes(defaults.sp_kernel_bytes).c_str(),
              defaults.sp_kernel_assoc,
              format_bytes(defaults.sp_user_bytes + defaults.sp_kernel_bytes)
                  .c_str());

  TablePrinter t({"app", "base miss", "SP-SRAM miss", "SP-MRSTT miss",
                  "SP-SRAM energy", "SP-MRSTT energy", "SP-SRAM time",
                  "SP-MRSTT time"});
  for (std::size_t w = 0; w < runner.apps().size(); ++w) {
    const SimResult& b = v[0].per_workload[w];
    const SimResult& sp = v[1].per_workload[w];
    const SimResult& mr = v[2].per_workload[w];
    auto ratio = [&](const SimResult& s, auto get) {
      return format_double(get(s) / get(b), 3);
    };
    auto cache_e = [](const SimResult& s) { return s.l2_energy.cache_nj(); };
    auto cyc = [](const SimResult& s) { return static_cast<double>(s.cycles); };
    t.add_row({b.workload, format_percent(b.l2_miss_rate()),
               format_percent(sp.l2_miss_rate()),
               format_percent(mr.l2_miss_rate()), ratio(sp, cache_e),
               ratio(mr, cache_e), ratio(sp, cyc), ratio(mr, cyc)});
  }
  t.add_row({"geomean", format_percent(v[0].avg_miss_rate),
             format_percent(v[1].avg_miss_rate),
             format_percent(v[2].avg_miss_rate),
             format_double(v[1].norm_cache_energy, 3),
             format_double(v[2].norm_cache_energy, 3),
             format_double(v[1].norm_exec_time, 3),
             format_double(v[2].norm_exec_time, 3)});

  emit(t, "e4_static_result.csv");
  std::printf(
      "\nPaper claim: the static technique cuts cache energy ~75%% at ~2%% "
      "performance loss.\nMeasured (SP-MRSTT geomean): %.0f%% energy "
      "reduction at %.1f%% loss.\n",
      (1.0 - v[2].norm_cache_energy) * 100.0,
      (v[2].norm_exec_time - 1.0) * 100.0);
  return 0;
}
