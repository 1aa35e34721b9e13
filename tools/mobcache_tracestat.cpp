/// \file mobcache_tracestat.cpp
/// CLI: inspect a .mct trace file — mode/type mix, footprints, reuse and
/// per-thread breakdown. The first sanity check to run on any trace before
/// simulating it.
///
/// Usage: mobcache_tracestat <trace.mct>

#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/bench_harness.hpp"
#include "trace/trace_compress.hpp"

using namespace mobcache;

static int tool_main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace.mct>\n", argv[0]);
    return 2;
  }
  const TraceReadResult r = read_trace_any_detailed(argv[1]);
  if (!r.ok()) {
    std::fprintf(stderr, "cannot load '%s': %s (%s)\n", argv[1],
                 to_string(r.status), r.detail.c_str());
    return 1;
  }
  const Trace& trace = *r.trace;

  const TraceSummary s = trace.summarize();
  std::printf("trace '%s': %s records\n\n", trace.name().c_str(),
              format_count(s.total).c_str());

  TablePrinter mix({"dimension", "value"});
  mix.add_row({"kernel share", format_percent(s.kernel_fraction())});
  mix.add_row({"write share",
               format_percent(static_cast<double>(s.writes) /
                              static_cast<double>(s.total))});
  mix.add_row({"ifetch share",
               format_percent(static_cast<double>(s.ifetches) /
                              static_cast<double>(s.total))});
  mix.add_row({"distinct user lines (footprint)",
               format_count(s.distinct_lines_user) + " (" +
                   format_bytes(s.distinct_lines_user * kLineSize) + ")"});
  mix.add_row({"distinct kernel lines (footprint)",
               format_count(s.distinct_lines_kernel) + " (" +
                   format_bytes(s.distinct_lines_kernel * kLineSize) + ")"});
  mix.print();

  // Reuse: accesses per distinct line, split by mode.
  std::unordered_map<Addr, std::uint32_t> touches;
  touches.reserve(s.distinct_lines_user + s.distinct_lines_kernel);
  std::map<std::uint16_t, std::uint64_t> per_thread;
  for (const Access& a : trace.accesses()) {
    ++touches[line_addr(a.addr)];
    ++per_thread[a.thread];
  }
  Log2Histogram reuse;
  for (const auto& [line, n] : touches) reuse.add(n);
  std::printf("\nline reuse (touches per distinct line): median %llu, "
              "p90 %llu, p99 %llu\n",
              static_cast<unsigned long long>(reuse.quantile_upper_bound(0.5)),
              static_cast<unsigned long long>(reuse.quantile_upper_bound(0.9)),
              static_cast<unsigned long long>(
                  reuse.quantile_upper_bound(0.99)));

  std::printf("\nper-thread records:\n");
  TablePrinter th({"thread", "records", "share"});
  for (const auto& [tid, n] : per_thread) {
    th.add_row({std::to_string(tid), format_count(n),
                format_percent(static_cast<double>(n) /
                               static_cast<double>(s.total))});
  }
  th.print();
  return 0;
}

int main(int argc, char** argv) {
  return guarded_main("mobcache_tracestat", /*install_signals=*/false, argc,
                      argv, tool_main);
}
