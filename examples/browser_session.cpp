/// \file browser_session.cpp
/// Domain scenario: a browsing session on a 2015-class phone. Walks the
/// full analysis pipeline the paper performs on one app — kernel share,
/// interference, lifetimes, then the three proposed designs.

#include <cstdio>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/multi_retention_l2.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "exp/runner.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

static int example_main(int argc, char** argv) {
  const std::uint64_t records =
      argc > 1 ? parse_u64("records", argv[1], 1) : 2'000'000;

  std::printf("=== browser session study (%s records) ===\n\n",
              format_count(records).c_str());
  const Trace trace = generate_app_trace(AppId::Browser, records, 2015);

  // 1. Workload anatomy.
  const TraceSummary ts = trace.summarize();
  std::printf("workload: %s records, %.1f%% kernel, %.1f%% stores, "
              "%s distinct user lines, %s distinct kernel lines\n\n",
              format_count(ts.total).c_str(), ts.kernel_fraction() * 100,
              100.0 * static_cast<double>(ts.writes) /
                  static_cast<double>(ts.total),
              format_count(ts.distinct_lines_user).c_str(),
              format_count(ts.distinct_lines_kernel).c_str());

  // 2. The baseline and its interference problem, with lifetimes recorded.
  LifetimeRecorder rec;
  const std::unique_ptr<L2Interface> base_l2 =
      build_scheme(SchemeKind::BaselineSram);
  base_l2->add_eviction_observer(rec.observer());
  const SimResult base = simulate(trace, *base_l2);

  std::printf("shared 2 MB SRAM L2: miss %.1f%%, kernel share of L2 "
              "accesses %.1f%%, cross-mode evictions %s (%.0f%% of all "
              "evictions)\n",
              base.l2_miss_rate() * 100, base.l2_kernel_fraction() * 100,
              format_count(base.l2.cross_mode_evictions).c_str(),
              100.0 * static_cast<double>(base.l2.cross_mode_evictions) /
                  static_cast<double>(base.l2.evictions));
  std::printf("block lifetimes (median fill→last-use): user %.2f ms, "
              "kernel %.2f ms → advisor: user %s, kernel %s\n\n",
              static_cast<double>(
                  rec.liveness(Mode::User).quantile_upper_bound(0.5)) / 1e6,
              static_cast<double>(
                  rec.liveness(Mode::Kernel).quantile_upper_bound(0.5)) / 1e6,
              std::string(to_string(RetentionAdvisor::recommend(
                  rec.liveness(Mode::User)))).c_str(),
              std::string(to_string(RetentionAdvisor::recommend(
                  rec.liveness(Mode::Kernel)))).c_str());

  // 3. The three proposed designs.
  TablePrinter t({"design", "capacity", "avg enabled", "L2 miss",
                  "cache energy", "exec time", "battery story"});
  auto add = [&](SchemeKind k, const char* story) {
    const SimResult r = simulate(trace, build_scheme(k));
    t.add_row({scheme_name(k), format_bytes(r.l2_capacity_bytes),
               format_bytes(static_cast<std::uint64_t>(r.l2_avg_enabled_bytes)),
               format_percent(r.l2_miss_rate()),
               format_percent(r.l2_energy.cache_nj() /
                              base.l2_energy.cache_nj()),
               format_double(static_cast<double>(r.cycles) /
                                 static_cast<double>(base.cycles),
                             3),
               story});
  };
  add(SchemeKind::BaselineSram, "stock phone");
  add(SchemeKind::StaticPartSram, "partition + shrink");
  add(SchemeKind::StaticPartMrstt, "+ multi-retention STT-RAM");
  add(SchemeKind::DynamicStt, "+ dynamic sizing");
  t.print();

  std::printf("\nThe L2's energy bill for this session drops to a fraction "
              "of the stock design's\nwhile page loads stay within a few "
              "percent of their original time.\n");
  return 0;
}

int main(int argc, char** argv) {
  // A malformed numeric argument exits 2 naming it (common/env.hpp).
  return guarded_main("browser_session", /*install_signals=*/false, argc,
                      argv, example_main);
}
