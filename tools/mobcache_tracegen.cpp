/// \file mobcache_tracegen.cpp
/// CLI: generate a synthetic mobile workload trace and save it as .mct.
///
/// Usage: mobcache_tracegen <app> <records> <out.mct> [seed]
///   app: launcher|browser|game|video|audio|email|maps|social|fft|matmul|
///        camera|messenger
///        or "mix" (time-sliced multitasking scenario over all interactive
///        apps, see workload/scenario.hpp)

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

static int tool_main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <app|mix> <records> <out.mct> [seed]\napps:",
                 argv[0]);
    for (AppId id : all_apps()) std::fprintf(stderr, " %s", app_name(id));
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::uint64_t records = parse_u64("records", argv[2], 1);
  const std::uint64_t seed = argc > 4 ? parse_u64("seed", argv[4]) : 1;

  Trace trace;
  if (std::strcmp(argv[1], "mix") == 0) {
    ScenarioConfig sc;
    sc.apps = interactive_apps();
    sc.total_accesses = records;
    sc.seed = seed;
    trace = generate_scenario(sc);
  } else {
    bool found = false;
    for (AppId id : all_apps()) {
      if (std::strcmp(argv[1], app_name(id)) == 0) {
        trace = generate_app_trace(id, records, seed);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown app '%s'\n", argv[1]);
      return 2;
    }
  }

  const std::string out_path = argv[3];
  const bool compressed =
      out_path.size() > 5 && out_path.rfind(".mctz") == out_path.size() - 5;
  const bool ok = compressed ? write_trace_compressed(trace, out_path)
                             : write_trace(trace, out_path);
  if (!ok) throw std::runtime_error("cannot write '" + out_path + "'");
  const TraceSummary s = trace.summarize();
  std::printf("%s: %s records (%s kernel, %s writes) -> %s\n",
              trace.name().c_str(), format_count(s.total).c_str(),
              format_percent(s.kernel_fraction()).c_str(),
              format_percent(static_cast<double>(s.writes) /
                             static_cast<double>(s.total)).c_str(),
              argv[3]);
  return 0;
}

int main(int argc, char** argv) {
  // No signal handlers: trace generation has no resumable state — Ctrl-C
  // should kill it like any other short-lived tool.
  return guarded_main("mobcache_tracegen", /*install_signals=*/false, argc,
                      argv, tool_main);
}
