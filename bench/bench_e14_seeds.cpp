/// \file bench_e14_seeds.cpp
/// E14 (extension) — statistical robustness: the headline designs across
/// five workload seeds. Reported as mean ± stddev [min, max]; the paper's
/// orderings must hold outside the seed-noise band, not just at one seed.
///
/// run_multi_seed runs each seed as one (scheme × workload) runner grid on
/// the --jobs workers, sharing one L1 pass per trace; stats accumulate in
/// seed order, so the reported numbers are identical for every job count.
/// A result store memoizes the cells.

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

using namespace mobcache;

namespace {

std::string pm(const SeedStat& s, int decimals = 3) {
  return format_double(s.mean, decimals) + " +- " +
         format_double(s.stddev, decimals) + " [" +
         format_double(s.min, decimals) + ", " +
         format_double(s.max, decimals) + "]";
}

}  // namespace

static int run(ExperimentContext& ctx) {
  print_banner("E14", "Seed robustness of the headline results");
  const std::uint64_t len = bench_trace_len();
  const std::vector<std::uint64_t> seeds = {11, 22, 42, 1234, 98765};

  const std::vector<SchemeKind> schemes = {
      SchemeKind::BaselineSram, SchemeKind::ShrunkSram,
      SchemeKind::DrowsySram, SchemeKind::StaticPartMrstt,
      SchemeKind::DynamicStt};

  const auto results = run_multi_seed(interactive_apps(), len, seeds, schemes,
                                      {}, ctx.flags.jobs, ctx.store.get());
  ctx.report.set_points(seeds.size() * schemes.size());

  TablePrinter t({"scheme", "norm cache energy (mean +- sd [min,max])",
                  "norm exec time", "miss rate"});
  for (const MultiSeedResult& r : results) {
    t.add_row({r.name, pm(r.cache_energy), pm(r.exec_time),
               pm(r.miss_rate)});
  }
  emit(t, "e14_seeds.csv");

  // The claims that must clear the noise band.
  const MultiSeedResult& mrstt = results[3];
  const MultiSeedResult& dpstt = results[4];
  std::printf(
      "\nChecks across %zu seeds:\n"
      "  SP-MRSTT saves >70%% in the worst seed: %s (max %.3f)\n"
      "  DP-STT   saves >70%% in the worst seed: %s (max %.3f)\n"
      "  DP-STT mean <= SP-MRSTT mean + 1 sd:    %s\n",
      seeds.size(), mrstt.cache_energy.max < 0.30 ? "yes" : "NO",
      mrstt.cache_energy.max, dpstt.cache_energy.max < 0.30 ? "yes" : "NO",
      dpstt.cache_energy.max,
      dpstt.cache_energy.mean <=
              mrstt.cache_energy.mean + mrstt.cache_energy.stddev
          ? "yes"
          : "NO");

  ctx.report.add_result("sp_mrstt_energy_mean", mrstt.cache_energy.mean);
  ctx.report.add_result("sp_mrstt_energy_max", mrstt.cache_energy.max);
  ctx.report.add_result("dp_stt_energy_mean", dpstt.cache_energy.mean);
  ctx.report.add_result("dp_stt_energy_max", dpstt.cache_energy.max);
  return 0;
}

int main(int argc, char** argv) {
  return run_experiment("e14_seeds", argc, argv, run);
}
