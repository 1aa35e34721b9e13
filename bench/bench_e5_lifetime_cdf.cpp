/// \file bench_e5_lifetime_cdf.cpp
/// E5 (paper Fig. 4) — block-lifetime distributions of the separated user
/// and kernel segments. Kernel blocks die young (short-retention STT-RAM
/// suffices); user blocks persist (need a longer class). Also prints the
/// RetentionAdvisor's recommendation, which E6 validates by sweeping.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/multi_retention_l2.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

std::string cycles_as_ms(std::uint64_t cycles) {
  return format_double(static_cast<double>(cycles) / 1e6, 3) + " ms";
}

}  // namespace

static int run(ExperimentContext& ctx) {
  print_banner("E5",
               "Block lifetime CDFs per segment (justifying multi-retention)");
  // Lifetimes need session-length traces: at short lengths every block
  // fits inside even the 10 ms LO retention and the asymmetry is invisible.
  const std::uint64_t len = bench_trace_len(6'000'000);

  // Aggregate lifetimes across the interactive suite on the chosen static
  // partition (SRAM tech so lifetimes are unaffected by expiry). One task
  // per app: its design carries the task's own eviction observer, and the
  // recorders merge in app order.
  const std::vector<AppId> apps = interactive_apps();
  const std::vector<LifetimeRecorder> per_app =
      SweepExecutor(ctx.flags.jobs).map(apps.size(), [&](std::size_t i) {
        const Trace trace = generate_app_trace(apps[i], len, 42);
        LifetimeRecorder r;
        const std::unique_ptr<L2Interface> l2 =
            build_scheme(SchemeKind::StaticPartSram);
        l2->add_eviction_observer(r.observer());
        simulate(trace, *l2);
        return r;
      });
  LifetimeRecorder rec;
  for (const LifetimeRecorder& r : per_app) rec.merge(r);

  TablePrinter t({"metric", "mode", "p25", "p50", "p75", "p90", "p99"});
  auto row = [&](const char* metric, Mode m, const Log2Histogram& h) {
    t.add_row({metric, std::string(to_string(m)),
               cycles_as_ms(h.quantile_upper_bound(0.25)),
               cycles_as_ms(h.quantile_upper_bound(0.50)),
               cycles_as_ms(h.quantile_upper_bound(0.75)),
               cycles_as_ms(h.quantile_upper_bound(0.90)),
               cycles_as_ms(h.quantile_upper_bound(0.99))});
  };
  for (Mode m : {Mode::User, Mode::Kernel}) {
    row("residency (fill→evict)", m, rec.residency(m));
    row("liveness (fill→last use)", m, rec.liveness(m));
    row("dead time (last use→evict)", m, rec.dead_time(m));
  }
  emit(t, "e5_lifetime_cdf.csv");

  TablePrinter cov({"mode", "blocks", "mean touches",
                    "covered by LO(10ms)", "covered by MID(1s)",
                    "advisor recommends"});
  for (Mode m : {Mode::User, Mode::Kernel}) {
    const Log2Histogram& live = rec.liveness(m);
    const double lo = live.fraction_below(tech_constants::kRetentionLoCycles);
    ctx.report.add_result(std::string(to_string(m)) + "_lo_coverage", lo);
    cov.add_row(
        {std::string(to_string(m)), format_count(rec.events(m)),
         format_double(rec.reuse(m).mean(), 1), format_percent(lo),
         format_percent(live.fraction_below(
             tech_constants::kRetentionMidCycles)),
         std::string(to_string(RetentionAdvisor::recommend(live)))});
  }
  std::printf("\n");
  emit(cov, "e5_retention_coverage.csv");

  std::printf(
      "\nReading: kernel blocks live far shorter than user blocks — the "
      "short-retention\nclass covers (nearly) all kernel lifetimes, while "
      "the user segment wants a longer\nclass. This is the paper's "
      "'completely different access behaviors' observation.\n");

  ctx.report.set_points(apps.size());
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e5_lifetime_cdf", argc, argv, run);
}
