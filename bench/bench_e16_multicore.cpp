/// \file bench_e16_multicore.cpp
/// E16 (future-work extension) — multicore SoCs: N cores with private L1s
/// sharing one L2. Compares the mode-oblivious shared baseline, the
/// single-partition designs applied naively (mode-only: all cores' user
/// blocks share one segment), and the grouped multicore dynamic design
/// (shared kernel segment + per-core user segments).

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "sim/multicore.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

struct Entry {
  std::string name;
  MulticoreResult r;
};

/// One pairing's three L2 designs over its traces. simulate_multicore, not
/// a runner grid: the runner has no multicore path.
std::vector<Entry> run_pairing(const std::vector<AppId>& apps,
                               std::uint64_t len) {
  std::vector<Trace> traces;
  for (std::size_t i = 0; i < apps.size(); ++i)
    traces.push_back(generate_app_trace(apps[i], len, 42 + i));

  std::vector<Entry> entries;
  entries.push_back({"shared SRAM 2MB",
                     simulate_multicore(traces,
                                        std::make_unique<ModeOnlyL2Adapter>(
                                            build_scheme(
                                                SchemeKind::BaselineSram)))});
  entries.push_back(
      {"SP-MRSTT (mode-only)",
       simulate_multicore(traces, std::make_unique<ModeOnlyL2Adapter>(
                                      build_scheme(
                                          SchemeKind::StaticPartMrstt)))});
  MulticoreL2Config mc;
  mc.cache.name = "L2";
  mc.cache.size_bytes = 2ull << 20;
  mc.cache.assoc = 16;
  mc.cores = static_cast<std::uint32_t>(apps.size());
  entries.push_back(
      {"MC-DP-STT (per-core groups)",
       simulate_multicore(traces,
                          std::make_unique<MulticoreDynamicL2>(mc))});
  return entries;
}

}  // namespace

static int run(ExperimentContext& ctx) {
  print_banner("E16", "Multicore: per-core user segments + shared kernel");
  const std::uint64_t len = bench_trace_len(800'000);

  TablePrinter t({"pairing", "L2 design", "L2 miss", "avg enabled",
                  "cache E vs shared", "makespan vs shared"});
  // One task per pairing: it generates the pairing's traces and runs its
  // three designs.
  const char* labels[] = {"browser+game (2 cores)", "launcher+audio (2 cores)",
                          "4-core mix"};
  const auto runs = SweepExecutor(ctx.flags.jobs).map(3, [&](std::size_t i) {
    if (i == 0) return run_pairing({AppId::Browser, AppId::Game}, len);
    if (i == 1) return run_pairing({AppId::Launcher, AppId::AudioPlayer}, len);
    return run_pairing(
        {AppId::Browser, AppId::Game, AppId::Email, AppId::AudioPlayer},
        len / 2);
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const MulticoreResult& base = runs[i][0].r;
    for (const Entry& e : runs[i]) {
      t.add_row({labels[i], e.name, format_percent(e.r.l2_miss_rate()),
                 format_bytes(static_cast<std::uint64_t>(
                     e.r.l2_avg_enabled_bytes)),
                 format_double(e.r.l2_energy.cache_nj() /
                                   base.l2_energy.cache_nj(), 3),
                 format_double(static_cast<double>(e.r.makespan) /
                                   static_cast<double>(base.makespan), 3)});
    }
  }
  emit(t, "e16_multicore.csv");

  std::printf(
      "\nReading: naively reusing the single-core static partition on a "
      "multicore makes\nall cores' user blocks fight over one segment; the "
      "grouped design isolates each\ncore's user working set, keeps the "
      "shared kernel segment hot for everyone, and\npreserves the "
      "single-core energy savings at multicore scale — the paper's\n"
      "partitioning insight generalizes per core.\n");

  const std::vector<Entry>& mix = runs.back();
  ctx.report.set_points(3 * mix.size());
  ctx.report.add_result("mix_mcdpstt_cache_vs_shared",
                        mix[2].r.l2_energy.cache_nj() /
                            mix[0].r.l2_energy.cache_nj());
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e16_multicore", argc, argv, run);
}
