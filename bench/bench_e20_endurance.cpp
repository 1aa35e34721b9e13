/// \file bench_e20_endurance.cpp
/// E20 (extension) — write endurance. STT-RAM cells survive ~1e12 writes;
/// the paper's designs concentrate the kernel's write-heavy traffic into a
/// small segment, so the hottest line wears faster than in a big shared
/// array. This bench measures per-location write wear for each design and
/// projects the hottest line's lifetime under continuous worst-case use.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/multi_retention_l2.hpp"
#include "core/scheme.hpp"
#include "core/shared_l2.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

constexpr double kEnduranceWrites = 1e12;

struct ArrayWear {
  std::string name;
  WearSummary wear;
};

/// One design's rows: its arrays' wear after the run and the run's
/// simulated wall time.
struct DesignWear {
  std::string design;
  std::vector<ArrayWear> arrays;
  double seconds = 0.0;
};

/// Years until the hottest line of `a` reaches the endurance limit under
/// continuous worst-case use.
double hottest_line_years(const ArrayWear& a, double seconds) {
  const double rate = static_cast<double>(a.wear.max_writes) / seconds;
  return rate <= 0.0 ? 1e9 : kEnduranceWrites / rate / 3.156e7;
}

void report_rows(const DesignWear& d, TablePrinter& t) {
  for (const ArrayWear& a : d.arrays) {
    const double years = hottest_line_years(a, d.seconds);
    t.add_row({d.design, a.name, format_count(a.wear.total_writes),
               format_double(a.wear.mean_writes, 1),
               format_count(a.wear.max_writes),
               format_double(a.wear.imbalance(), 1),
               years > 1000 ? ">1000 y" : format_double(years, 0) + " y"});
  }
}

double seconds_of(const SimResult& r) {
  return static_cast<double>(r.cycles) * 1e-9;
}

/// Row group i of the table, i in [0, 4): each reads its design's wear
/// state after the run, while the design is alive.
DesignWear run_row(const Trace& trace, std::size_t i) {
  if (i == 0) {
    SharedL2Config c;
    c.cache.name = "L2";
    c.cache.size_bytes = 2ull << 20;
    c.cache.assoc = 16;
    c.tech = TechKind::SttRam;
    c.retention = RetentionClass::Hi;
    SharedL2 l2(c);
    const double secs = seconds_of(simulate(trace, l2));
    return {"Shared-STT-2MB", {{"whole array", l2.array().wear_summary()}},
            secs};
  }
  if (i == 3) {
    DynamicPartitionedL2 l2(dynamic_scheme_config(SchemeKind::DynamicStt));
    const double secs = seconds_of(simulate(trace, l2));
    return {"DP-STT", {{"whole array", l2.array().wear_summary()}}, secs};
  }
  StaticPartitionConfig c = make_mrstt_config(
      1024ull << 10, 8, RetentionClass::Mid, 256ull << 10, 8,
      RetentionClass::Lo);
  if (i == 2) {
    // The mitigation E20 recommends: set-index rotation on both segments
    // (demo cadence: every 30-100k writes; a product would rotate daily).
    // Same traffic, flatter wear — especially for the user segment's hot
    // line, whose imbalance dominates.
    c.user.wear_rotate_writes = 30'000;
    c.kernel.wear_rotate_writes = 100'000;
  }
  StaticPartitionedL2 l2(c);
  const double secs = seconds_of(simulate(trace, l2));
  return {i == 2 ? "SP-MRSTT + rotation" : "SP-MRSTT",
          {{"user 1MB", l2.segment(Mode::User).array().wear_summary()},
           {"kernel 256KB", l2.segment(Mode::Kernel).array().wear_summary()}},
          secs};
}

}  // namespace

static int run(ExperimentContext& ctx) {
  print_banner("E20", "Write endurance / wear of the STT-RAM designs");
  const std::uint64_t len = bench_trace_len(2'000'000);
  // Aggregate wear over a busy app (continuous use is the worst case).
  const Trace trace = generate_app_trace(AppId::Game, len, 42);

  TablePrinter t({"design", "array", "total writes", "mean/line", "max/line",
                  "imbalance", "hottest-line lifetime @1e12"});

  // One task per design over the shared trace, not a runner grid.
  const std::vector<DesignWear> rows = SweepExecutor(ctx.flags.jobs).map(
      4, [&](std::size_t i) { return run_row(trace, i); });
  for (const DesignWear& d : rows) report_rows(d, t);
  emit(t, "e20_endurance.csv");

  const ArrayWear& shared = rows[0].arrays[0];
  const ArrayWear& user = rows[1].arrays[0];
  const ArrayWear& kernel = rows[1].arrays[1];
  const ArrayWear& rotated = rows[2].arrays[0];
  const double kernel_wear_x =
      kernel.wear.mean_writes / shared.wear.mean_writes;
  const double extra_writes = static_cast<double>(rotated.wear.total_writes) /
                                  static_cast<double>(user.wear.total_writes) -
                              1.0;
  std::printf(
      "\nReading: the dedicated kernel segment concentrates writes (%.1fx the "
      "mean per-line\nwear of the shared array) but evens them out "
      "(imbalance %.1f vs %.1f); the real\nendurance hazard is the hot user "
      "line (imbalance %.1f, hottest-line lifetime %.1f\nyears of "
      "UNINTERRUPTED worst-case gaming). The implemented mitigation — "
      "periodic\nset-index rotation — cuts the hot line %.1fx (%u -> %u "
      "writes, %.1f years) at the\ncost of %.0f%% extra user-array writes "
      "from the rotation flushes. Endurance is a\nreal but manageable "
      "consideration the paper inherits from STT-RAM.\n",
      kernel_wear_x, kernel.wear.imbalance(), shared.wear.imbalance(),
      user.wear.imbalance(), hottest_line_years(user, rows[1].seconds),
      static_cast<double>(user.wear.max_writes) / rotated.wear.max_writes,
      user.wear.max_writes, rotated.wear.max_writes,
      hottest_line_years(rotated, rows[2].seconds), extra_writes * 100.0);

  ctx.report.set_points(rows.size());
  ctx.report.add_result("kernel_vs_shared_mean_wear", kernel_wear_x);
  ctx.report.add_result("user_hot_line_writes",
                        static_cast<double>(user.wear.max_writes));
  ctx.report.add_result("rotated_user_hot_line_writes",
                        static_cast<double>(rotated.wear.max_writes));
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e20_endurance", argc, argv, run);
}
