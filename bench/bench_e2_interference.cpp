/// \file bench_e2_interference.cpp
/// E2 (paper Fig. 2) — user/kernel interference in the shared L2: how many
/// replacements evict a block of the *other* mode, and how the miss rate
/// changes when the same total capacity is split into isolated segments.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/static_partitioned_l2.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

std::unique_ptr<L2Interface> shared_2mb() {
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 2ull << 20;
  c.cache.assoc = 16;
  return std::make_unique<SharedL2>(c);
}

/// Same 2 MB total, but split (no interference, no shrink yet).
std::unique_ptr<L2Interface> split_2mb() {
  StaticPartitionConfig c;
  c.user = sram_segment(1536ull << 10, 12);
  c.kernel = sram_segment(512ull << 10, 8);
  return std::make_unique<StaticPartitionedL2>(c);
}

}  // namespace

static int run(ExperimentContext& ctx) {
  print_banner("E2",
               "User/kernel interference in the shared L2 (cross-mode "
               "evictions and the isolation dividend)");
  const std::uint64_t len = bench_trace_len();

  TablePrinter t({"app", "cross-mode evictions", "shared miss (user)",
                  "shared miss (kern)", "split miss (user)",
                  "split miss (kern)", "miss delta"});

  // One task per app: it generates its trace, simulates both designs and
  // frees the trace, so --jobs=1 keeps one trace resident at a time (a
  // runner grid holds the whole suite).
  const std::vector<AppId> apps = interactive_apps();
  const auto runs =
      SweepExecutor(ctx.flags.jobs).map(apps.size(), [&](std::size_t i) {
        const Trace trace = generate_app_trace(apps[i], len, 42);
        return std::pair{simulate(trace, shared_2mb()),
                         simulate(trace, split_2mb())};
      });
  double mean_cross = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& [shared, split] = runs[i];
    const double cross =
        shared.l2.evictions == 0
            ? 0.0
            : static_cast<double>(shared.l2.cross_mode_evictions) /
                  static_cast<double>(shared.l2.evictions);
    mean_cross += cross / static_cast<double>(apps.size());
    t.add_row({app_name(apps[i]), format_percent(cross),
               format_percent(shared.l2.miss_rate(Mode::User)),
               format_percent(shared.l2.miss_rate(Mode::Kernel)),
               format_percent(split.l2.miss_rate(Mode::User)),
               format_percent(split.l2.miss_rate(Mode::Kernel)),
               format_percent(split.l2.miss_rate() - shared.l2.miss_rate(),
                              2)});
  }

  emit(t, "e2_interference.csv");
  std::printf(
      "\nReading: a large share of shared-L2 replacements evict the other "
      "mode's blocks.\nIsolating the modes at the SAME total capacity keeps "
      "the miss rate (delta ~0), so\nthe interference headroom can instead "
      "be cashed in as capacity shrink (E3).\n");

  ctx.report.set_points(apps.size());
  ctx.report.add_result("mean_cross_mode_eviction_share", mean_cross);
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e2_interference", argc, argv, run);
}
