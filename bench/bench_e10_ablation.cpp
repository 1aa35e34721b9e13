/// \file bench_e10_ablation.cpp
/// E10 — ablation of the design choices DESIGN.md flags: dynamic-partition
/// epoch length, demand-monitor kind, damping step, miss slack, energy
/// criterion, refresh policy, and replacement policy. Each section compares
/// against the same SRAM baseline on a reduced suite.
///
/// `--jobs=N` / MOBCACHE_JOBS set every grid's worker count; no emitted
/// number depends on it. The builders only read their captures, so they
/// are safe to call from the workers.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

using namespace mobcache;

namespace {

std::vector<AppId> reduced_suite() {
  return {AppId::Launcher, AppId::Browser, AppId::AudioPlayer, AppId::Maps};
}

struct Ctx {
  ExperimentRunner* runner;
  SchemeSuiteResult base;
};

void dp_row(Ctx& ctx, TablePrinter& t, const std::string& label,
            const std::function<void(DynamicL2Config&)>& tweak) {
  auto r = ctx.runner->run_custom(label, [&] {
    DynamicL2Config c;
    c.cache.name = "L2";
    c.cache.size_bytes = 2ull << 20;
    c.cache.assoc = 16;
    c.tech = TechKind::SttRam;
    c.retention = RetentionClass::Lo;
    tweak(c);
    return std::make_unique<DynamicPartitionedL2>(c);
  });
  std::vector<SchemeSuiteResult> v{ctx.base, r};
  ExperimentRunner::normalize(v);
  double enabled = 0.0;
  for (const SimResult& s : r.per_workload)
    enabled += s.l2_avg_enabled_bytes / 1024.0;
  enabled /= static_cast<double>(r.per_workload.size());
  t.add_row({label, format_bytes(static_cast<std::uint64_t>(enabled) << 10),
             format_percent(r.avg_miss_rate),
             format_double(v[1].norm_cache_energy, 3),
             format_double(v[1].norm_exec_time, 3)});
}

TablePrinter dp_table() {
  return TablePrinter({"variant", "avg enabled", "L2 miss",
                       "norm cache energy", "norm exec time"});
}

}  // namespace

static int run_bench(int argc, char** argv) {
  const unsigned jobs = bench_jobs(argc, argv);
  print_banner("E10", "Ablation of the dynamic/static design choices");
  const std::uint64_t len = bench_trace_len(600'000);

  ExperimentRunner runner(reduced_suite(), len, 42);
  runner.jobs = jobs;
  Ctx ctx{&runner, runner.run_scheme(SchemeKind::BaselineSram)};

  std::printf("[a] DP-STT epoch length (accesses between decisions):\n");
  TablePrinter a = dp_table();
  for (std::uint64_t epoch : {2'500ull, 5'000ull, 10'000ull, 20'000ull,
                              40'000ull, 80'000ull}) {
    dp_row(ctx, a, "epoch=" + std::to_string(epoch),
           [&](DynamicL2Config& c) { c.epoch_accesses = epoch; });
  }
  emit(a, "e10a_epoch.csv");

  std::printf("\n[b] demand monitor:\n");
  TablePrinter b = dp_table();
  dp_row(ctx, b, "shadow-utility", [](DynamicL2Config&) {});
  dp_row(ctx, b, "hill-climb", [](DynamicL2Config& c) {
    c.controller.monitor = MonitorKind::HillClimb;
  });
  emit(b, "e10b_monitor.csv");

  std::printf("\n[c] damping step (max ways moved per epoch):\n");
  TablePrinter c = dp_table();
  for (std::uint32_t step : {1u, 2u, 4u, 16u}) {
    dp_row(ctx, c, "step=" + std::to_string(step),
           [&](DynamicL2Config& cc) { cc.controller.max_step = step; });
  }
  emit(c, "e10c_damping.csv");

  std::printf("\n[d] miss slack (allowed projected-miss growth):\n");
  TablePrinter d = dp_table();
  for (double slack : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    dp_row(ctx, d, "slack=" + format_double(slack, 2),
           [&](DynamicL2Config& cc) { cc.controller.miss_slack = slack; });
  }
  emit(d, "e10d_slack.csv");

  std::printf("\n[e] energy criterion (trim ways that don't pay their "
              "leakage):\n");
  TablePrinter e = dp_table();
  dp_row(ctx, e, "off (paper: miss guard only)", [](DynamicL2Config&) {});
  dp_row(ctx, e, "on", [](DynamicL2Config& cc) {
    cc.controller.use_energy_criterion = true;
  });
  emit(e, "e10e_energy_criterion.csv");

  std::printf("\n[f] refresh policy for the short-retention designs "
              "(DP-STT, session-length traces so blocks actually outlive "
              "the 10 ms retention):\n");
  {
    ExperimentRunner long_runner({AppId::Launcher, AppId::Email},
                                 bench_trace_len(6'000'000), 42);
    long_runner.jobs = jobs;
    Ctx long_ctx{&long_runner,
                 long_runner.run_scheme(SchemeKind::BaselineSram)};
    TablePrinter f({"variant", "avg enabled", "L2 miss", "norm cache energy",
                    "norm exec time"});
    for (RefreshPolicy rp :
         {RefreshPolicy::ScrubDirty, RefreshPolicy::ScrubAll,
          RefreshPolicy::InvalidateOnExpiry}) {
      dp_row(long_ctx, f, std::string(to_string(rp)),
             [&](DynamicL2Config& cc) { cc.refresh = rp; });
    }
    emit(f, "e10f_refresh.csv");
  }

  std::printf("\n[h] L1 geometry (does the >40%% kernel-share observation "
              "depend on L1 size?):\n");
  {
    TablePrinter hh({"L1 (I+D)", "L2 kernel share", "base miss",
                     "SP-MRSTT norm energy", "SP-MRSTT norm time"});
    for (std::uint64_t l1_kb : {16ull, 32ull, 64ull}) {
      ExperimentRunner r2(runner.apps(), runner.traces());
      r2.jobs = jobs;
      r2.sim_options.hierarchy.l1i.size_bytes = l1_kb << 10;
      r2.sim_options.hierarchy.l1d.size_bytes = l1_kb << 10;
      auto b = r2.run_scheme(SchemeKind::BaselineSram);
      auto sp = r2.run_scheme(SchemeKind::StaticPartMrstt);
      std::vector<SchemeSuiteResult> v{b, sp};
      ExperimentRunner::normalize(v);
      double kshare = 0.0;
      for (const SimResult& s : b.per_workload) kshare += s.l2_kernel_fraction();
      kshare /= static_cast<double>(b.per_workload.size());
      hh.add_row({std::to_string(l1_kb) + "K+" + std::to_string(l1_kb) + "K",
                  format_percent(kshare), format_percent(b.avg_miss_rate),
                  format_double(v[1].norm_cache_energy, 3),
                  format_double(v[1].norm_exec_time, 3)});
    }
    emit(hh, "e10h_l1_geometry.csv");
  }

  std::printf("\n[g] replacement policy (baseline and SP-SRAM):\n");
  TablePrinter g({"policy", "baseline miss", "SP-SRAM miss",
                  "SP-SRAM norm energy", "SP-SRAM norm time"});
  for (ReplKind rk : {ReplKind::Lru, ReplKind::Plru, ReplKind::Srrip,
                      ReplKind::Fifo, ReplKind::Random}) {
    SchemeParams p;
    p.repl = rk;
    auto base_rk = runner.run_scheme(SchemeKind::BaselineSram, p);
    auto sp = runner.run_scheme(SchemeKind::StaticPartSram, p);
    std::vector<SchemeSuiteResult> v{base_rk, sp};
    ExperimentRunner::normalize(v);
    g.add_row({std::string(to_string(rk)),
               format_percent(base_rk.avg_miss_rate),
               format_percent(sp.avg_miss_rate),
               format_double(v[1].norm_cache_energy, 3),
               format_double(v[1].norm_exec_time, 3)});
  }
  emit(g, "e10g_replacement.csv");

  std::printf("\n[k] segment aspect ratio at fixed sizes (1 MB user + "
              "256 KB kernel): way-heavy vs set-heavy segments:\n");
  {
    TablePrinter kk({"user/kernel assoc", "L2 miss", "norm cache energy",
                     "norm exec time"});
    for (std::uint32_t assoc : {4u, 8u, 16u}) {
      auto r = runner.run_custom("aspect", [&] {
        StaticPartitionConfig pc;
        pc.user = sram_segment(1024ull << 10, assoc);
        pc.kernel = sram_segment(256ull << 10, assoc);
        return std::make_unique<StaticPartitionedL2>(pc);
      });
      std::vector<SchemeSuiteResult> v{ctx.base, r};
      ExperimentRunner::normalize(v);
      kk.add_row({std::to_string(assoc) + "-way",
                  format_percent(r.avg_miss_rate),
                  format_double(v[1].norm_cache_energy, 3),
                  format_double(v[1].norm_exec_time, 3)});
    }
    emit(kk, "e10k_aspect.csv");
  }

  std::printf("\n[j] L2 inclusion policy (SP-MRSTT):\n");
  {
    TablePrinter jj({"policy", "L2 miss", "norm cache energy",
                     "norm exec time"});
    for (bool inclusive : {false, true}) {
      ExperimentRunner r2(runner.apps(), runner.traces());
      r2.jobs = jobs;
      r2.sim_options.hierarchy.inclusive_l2 = inclusive;
      auto b = r2.run_scheme(SchemeKind::BaselineSram);
      auto sp = r2.run_scheme(SchemeKind::StaticPartMrstt);
      std::vector<SchemeSuiteResult> v{b, sp};
      ExperimentRunner::normalize(v);
      jj.add_row({inclusive ? "inclusive" : "non-inclusive (paper)",
                  format_percent(sp.avg_miss_rate),
                  format_double(v[1].norm_cache_energy, 3),
                  format_double(v[1].norm_exec_time, 3)});
    }
    emit(jj, "e10j_inclusion.csv");
  }

  std::printf("\n[i] XOR set-index hashing (baseline):\n");
  {
    TablePrinter ii({"indexing", "baseline miss", "norm exec time"});
    SchemeParams px;
    px.xor_index = true;
    auto hashed = runner.run_scheme(SchemeKind::BaselineSram, px);
    std::vector<SchemeSuiteResult> v{ctx.base, hashed};
    ExperimentRunner::normalize(v);
    ii.add_row({"modulo (paper)", format_percent(ctx.base.avg_miss_rate),
                "1.000"});
    ii.add_row({"xor-folded", format_percent(hashed.avg_miss_rate),
                format_double(v[1].norm_exec_time, 3)});
    emit(ii, "e10i_indexing.csv");
  }

  std::printf(
      "\nReading: the miss-slack guard and the epoch length are the main "
      "energy/performance\ndials (longer epochs and zero slack keep more "
      "ways powered); the shadow-utility\nmonitor clearly beats blind "
      "hill-climbing; aggressive (undamped) reallocation\nsaves leakage "
      "but pays in flush misses; refresh policy only matters once blocks\n"
      "outlive their retention, where scrub-dirty is the cheapest safe "
      "choice.\n");
  return 0;
}

int main(int argc, char** argv) {
  return guarded_main("bench_e10_ablation", /*install_signals=*/true, argc,
                      argv, run_bench);
}
