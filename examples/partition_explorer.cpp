/// \file partition_explorer.cpp
/// Interactive design-space tool: evaluate any user/kernel segment sizing
/// and technology pairing on any app from the command line.
///
/// Usage:
///   partition_explorer [app] [user_kb] [user_assoc] [kernel_kb]
///                      [kernel_assoc] [tech] [user_ret] [kernel_ret]
///   partition_explorer auto [max_slowdown]   — run the autosizer instead
///   app:   launcher|browser|game|video|audio|email|maps|social|fft|matmul
///          |camera|messenger
///   tech:  sram|stt        ret: lo|mid|hi
/// Examples:
///   partition_explorer browser 768 12 256 8 stt mid lo
///   partition_explorer auto 1.03

#include <cstdio>
#include <cstring>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/partition_autosizer.hpp"
#include "core/scheme.hpp"
#include "exp/bench_harness.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

AppId parse_app(const char* s) {
  for (AppId id : all_apps()) {
    if (std::strcmp(s, app_name(id)) == 0) return id;
  }
  std::fprintf(stderr, "unknown app '%s', using browser\n", s);
  return AppId::Browser;
}

RetentionClass parse_ret(const char* s) {
  if (std::strcmp(s, "lo") == 0) return RetentionClass::Lo;
  if (std::strcmp(s, "mid") == 0) return RetentionClass::Mid;
  return RetentionClass::Hi;
}

}  // namespace

int run_autosizer(int argc, char** argv) {
  AutosizerConfig cfg;
  cfg.tech = TechKind::SttRam;
  if (argc > 2) cfg.max_slowdown = parse_double("max_slowdown", argv[2]);
  std::printf("autosizing a multi-retention STT partition for the primary "
              "suite (time budget %.2fx)...\n\n",
              cfg.max_slowdown);
  std::vector<Trace> traces;
  for (AppId id : interactive_apps())
    traces.push_back(generate_app_trace(id, 400'000, 42));
  const CandidateScore best = PartitionAutosizer(cfg).best(traces);
  std::printf("chosen: user %s %u-way + kernel %s %u-way  (total %s)\n"
              "  normalized cache energy %.3f, exec time %.3f, miss %.1f%%, "
              "budget %s\n",
              format_bytes(best.candidate.user_bytes).c_str(),
              best.candidate.user_assoc,
              format_bytes(best.candidate.kernel_bytes).c_str(),
              best.candidate.kernel_assoc,
              format_bytes(best.candidate.total_bytes()).c_str(),
              best.norm_cache_energy, best.norm_exec_time,
              best.avg_miss_rate * 100,
              best.feasible ? "met" : "NOT met (least-bad fallback)");
  return 0;
}

static int example_main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "auto") == 0) {
    return run_autosizer(argc, argv);
  }
  // Segment sizes in KiB (shifted to bytes below, hence the upper bound).
  constexpr std::uint64_t kMaxKb = UINT64_MAX >> 10;
  const AppId app = argc > 1 ? parse_app(argv[1]) : AppId::Browser;
  const std::uint64_t user_kb =
      argc > 2 ? parse_u64("user_kb", argv[2], 1, kMaxKb) : 1024;
  const auto user_assoc = static_cast<std::uint32_t>(
      argc > 3 ? parse_u64("user_assoc", argv[3], 1, UINT32_MAX) : 8);
  const std::uint64_t kernel_kb =
      argc > 4 ? parse_u64("kernel_kb", argv[4], 1, kMaxKb) : 256;
  const auto kernel_assoc = static_cast<std::uint32_t>(
      argc > 5 ? parse_u64("kernel_assoc", argv[5], 1, UINT32_MAX) : 8);
  const bool stt = argc > 6 && std::strcmp(argv[6], "stt") == 0;
  const RetentionClass user_ret = argc > 7 ? parse_ret(argv[7]) : RetentionClass::Mid;
  const RetentionClass kernel_ret = argc > 8 ? parse_ret(argv[8]) : RetentionClass::Lo;

  std::printf("exploring: app=%s user=%lluK/%u kernel=%lluK/%u tech=%s\n\n",
              app_name(app), static_cast<unsigned long long>(user_kb),
              user_assoc, static_cast<unsigned long long>(kernel_kb),
              kernel_assoc, stt ? "STT-RAM" : "SRAM");

  const Trace trace = generate_app_trace(app, 1'500'000, 7);
  const SimResult base =
      simulate(trace, build_scheme(SchemeKind::BaselineSram));

  StaticPartitionConfig pc;
  if (stt) {
    pc.user = sttram_segment(user_kb << 10, user_assoc, user_ret);
    pc.kernel = sttram_segment(kernel_kb << 10, kernel_assoc, kernel_ret);
  } else {
    pc.user = sram_segment(user_kb << 10, user_assoc);
    pc.kernel = sram_segment(kernel_kb << 10, kernel_assoc);
  }

  std::unique_ptr<L2Interface> l2;
  try {
    l2 = std::make_unique<StaticPartitionedL2>(pc);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid geometry: %s\n", e.what());
    std::fprintf(stderr, "hint: size/(64*assoc) must be a power of two "
                         "(e.g. 768K needs 12-way, 512K works 8-way)\n");
    return 1;
  }
  const std::string design = l2->describe();
  const SimResult r = simulate(trace, std::move(l2));

  TablePrinter t({"metric", "baseline 2MB SRAM", "your design"});
  t.add_row({"description", "shared 2048KB 16-way SRAM", design});
  t.add_row({"L2 miss rate", format_percent(base.l2_miss_rate()),
             format_percent(r.l2_miss_rate())});
  t.add_row({"user miss rate", format_percent(base.l2.miss_rate(Mode::User)),
             format_percent(r.l2.miss_rate(Mode::User))});
  t.add_row({"kernel miss rate",
             format_percent(base.l2.miss_rate(Mode::Kernel)),
             format_percent(r.l2.miss_rate(Mode::Kernel))});
  t.add_row({"cache energy (uJ)",
             format_double(base.l2_energy.cache_nj() / 1e3, 1),
             format_double(r.l2_energy.cache_nj() / 1e3, 1)});
  t.add_row({"  leakage (uJ)",
             format_double(base.l2_energy.leakage_nj / 1e3, 1),
             format_double(r.l2_energy.leakage_nj / 1e3, 1)});
  t.add_row({"  writes+refresh (uJ)",
             format_double((base.l2_energy.write_nj +
                            base.l2_energy.refresh_nj) / 1e3, 1),
             format_double((r.l2_energy.write_nj + r.l2_energy.refresh_nj) /
                           1e3, 1)});
  t.add_row({"DRAM energy (uJ)",
             format_double(base.l2_energy.dram_nj / 1e3, 1),
             format_double(r.l2_energy.dram_nj / 1e3, 1)});
  t.add_row({"exec cycles", format_count(base.cycles),
             format_count(r.cycles)});
  t.add_row({"vs baseline", "1.000 / 1.000",
             format_double(r.l2_energy.cache_nj() /
                           base.l2_energy.cache_nj(), 3) + " energy, " +
             format_double(static_cast<double>(r.cycles) /
                           static_cast<double>(base.cycles), 3) + " time"});
  t.print();
  return 0;
}

int main(int argc, char** argv) {
  // A malformed numeric argument exits 2 naming it (common/env.hpp).
  return guarded_main("partition_explorer", /*install_signals=*/false, argc,
                      argv, example_main);
}
