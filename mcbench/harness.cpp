/// \file harness.cpp
/// mcbench_harness — runs one workload and prints its metrics.
///
///   mcbench_harness --workload NAME --seed N --seconds S --trace 0|1
///                   [--spans FILE]
///
/// --trace 0: sets the workload up three times (setup_s is the median), then
/// repeats its timed region until S seconds have passed and reports the
/// end-to-end metrics (medians over the iterations).
/// --trace 1: sets up once, runs three untraced iterations as the reference,
/// one iteration with spans around each library call, then the serial
/// per-layer analysis pass, and reports the per-layer metrics.
///
/// Human-readable lines come first; the last line is one JSON object with
/// "correct", "attempted", "failed", "metrics" and "info".

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exp/fleet.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_stream.hpp"

using namespace mcbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mcbench_harness: %s\nusage: mcbench_harness --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0')
    usage((std::string("bad value for ") + flag).c_str());
  return x;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = parse_u64("--seed", v);
    else if (flag == "--seconds")
      a.seconds = static_cast<double>(parse_u64("--seconds", v));
    else if (flag == "--trace") a.trace = parse_u64("--trace", v) != 0;
    else if (flag == "--spans") a.spans = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Per-layer metrics every traced run reports, in print order. A workload
/// that does not take a layer's path reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"workload.gen_s", "s"},
      {"workload.gen_records_per_s", "1/s"},
      {"trace.stream_chunks", "count"},
      {"trace.chunk_reuse_hits", "count"},
      {"trace.high_water_chunk_kb", "KiB"},
      {"trace.cache_hits", "count"},
      {"trace.cache_misses", "count"},
      {"sim.l1_pass_s", "s"},
      {"sim.demand_ratio", "ratio"},
      {"sim.per_point_s", "s"},
      {"sim.l2_replay_s", "s"},
      {"sim.l2_replay_ns_per_access", "ns"},
      {"cache.kernel_ns_per_access", "ns"},
      {"cache.l2_miss_rate", "ratio"},
      {"cache.expired_blocks", "count"},
      {"core.wrapper_ns_per_access", "ns"},
      {"core.build_ms", "ms"},
      {"energy.refresh_share", "ratio"},
      {"exp.parallel_efficiency", "ratio"},
      {"exp.emit_s", "s"},
      {"exp.fleet_shard_merges", "count"},
      {"obs.sampling_overhead_x", "x"},
      {"obs.overhead_x", "x"},
      {"obs.events", "count"},
      {"obs.ns_per_event", "ns"},
      {"obs.render_s", "s"},
      {"obs.render_mb", "MiB"},
      {"bench.trace_overhead_x", "x"},
      {"bench.analysis_s", "s"},
  };
  return m;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Named> metrics;
  std::vector<Named> info_nums;
  std::string digest;

  void print() const {
    for (const Named& m : metrics)
      std::printf("metric %-30s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    for (const Named& m : info_nums)
      std::printf("info   %-30s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("info   %-30s %s\n", "result_digest", digest.c_str());
    std::string j = "{\"correct\": ";
    j += correct ? "true" : "false";
    j += ", \"attempted\": " + std::to_string(attempted);
    j += ", \"failed\": " + std::to_string(failed);
    j += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) j += ", ";
      j += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    j += "}, \"info\": {\"result_digest\": \"" + digest + "\"";
    for (const Named& m : info_nums)
      j += ", \"" + m.name + "\": " + num(m.value);
    j += "}}";
    std::printf("%s\n", j.c_str());
    std::fflush(stdout);
  }
};

struct Timing {
  std::vector<double> wall;
  std::vector<double> cpu;
};

/// One timed iteration; checks its digest against `first_digest` (set by the
/// first iteration).
RunOutput timed_iteration(Workload& w, Timing& t, std::string& first_digest,
                          Report& rep) {
  const double c0 = cpu_now();
  const double t0 = wall_now();
  RunOutput o = w.run();
  t.wall.push_back(wall_now() - t0);
  t.cpu.push_back(cpu_now() - c0);
  rep.attempted += o.points;
  if (first_digest.empty()) first_digest = o.digest;
  if (o.digest != first_digest) {
    std::printf("FAIL iteration %zu digest %s != first %s\n", t.wall.size(),
                o.digest.c_str(), first_digest.c_str());
    rep.failed += o.points;
  }
  std::printf("iter   %3zu wall %.4f s cpu %.4f s digest %s\n", t.wall.size(),
              t.wall.back(), t.cpu.back(), o.digest.c_str());
  return o;
}

void run_untraced(Workload& w, const Args& a, Report& rep) {
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    w.teardown();
    const double t0 = wall_now();
    w.setup();
    setups.push_back(wall_now() - t0);
    std::printf("setup  %3d %.4f s\n", i + 1, setups.back());
  }

  Timing t;
  std::string digest;
  RunOutput last;
  const double start = wall_now();
  do {
    last = timed_iteration(w, t, digest, rep);
  } while (wall_now() - start < a.seconds);

  const auto [checked, mismatched] = w.spot_check();
  rep.attempted += checked;
  rep.failed += mismatched;
  std::printf("check  %" PRIu64 " cell(s) recomputed on a second path, %" PRIu64
              " mismatched\n", checked, mismatched);

  const double wall = median(t.wall);
  rep.metrics = {
      {"wall_s", wall, "s"},
      {"sim_records_per_s", ratio(static_cast<double>(last.sim_records), wall),
       "1/s"},
      {"cpu_s", median(t.cpu), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"setup_s", median(setups), "s"},
  };
  rep.info_nums.push_back(
      {"iterations", static_cast<double>(t.wall.size()), "count"});
  rep.digest = digest;
  for (const Named& m : w.model_report()) rep.info_nums.push_back(m);
}

void run_traced(Workload& w, const Args& a, Report& rep) {
  w.teardown();
  reset_stream_counters();
  reset_fleet_counters();
  w.setup();

  // Reference: three untraced iterations. The stream and trace-cache
  // counters cover the setup plus the first of them.
  Timing t;
  std::string digest;
  timed_iteration(w, t, digest, rep);
  const StreamCounters sc = stream_counters();
  const TraceCache::Stats cs = TraceCache::instance().stats();
  for (int i = 0; i < 2; ++i) timed_iteration(w, t, digest, rep);
  const double wall = median(t.wall);
  const double cpu = median(t.cpu);

  SpanLog log;
  double traced = 0.0;
  const RunOutput o = timed(log, "bench.traced_run", traced,
                            [&] { return w.run_traced(log); });
  rep.attempted += o.points;
  if (o.digest != digest) {
    std::printf("FAIL traced run digest %s != untraced %s\n", o.digest.c_str(),
                digest.c_str());
    rep.failed += o.points;
  }

  double analysis_s = 0.0;
  const Analysis an = timed(log, "bench.analysis", analysis_s,
                            [&] { return w.analyse(log); });
  rep.attempted += an.checked;
  rep.failed += an.mismatched;
  std::printf("check  %" PRIu64 " cell(s) recomputed on a second path, %" PRIu64
              " mismatched\n", an.checked, an.mismatched);

  std::map<std::string, double> v = {
      {"trace.stream_chunks", static_cast<double>(sc.chunks_generated)},
      {"trace.chunk_reuse_hits", static_cast<double>(sc.chunk_reuse_hits)},
      {"trace.high_water_chunk_kb",
       static_cast<double>(sc.high_water_chunk_bytes) / 1024.0},
      {"trace.cache_hits", static_cast<double>(cs.hits)},
      {"trace.cache_misses", static_cast<double>(cs.misses)},
      {"sim.per_point_s", median(log.durations("sim.per_point"))},
      {"core.build_ms", median(log.durations("core.build")) * 1e3},
      {"exp.parallel_efficiency", cpu / (wall * w.jobs())},
      {"exp.emit_s", log.total("exp.emit")},
      {"bench.trace_overhead_x", traced / wall},
      {"bench.analysis_s", analysis_s},
  };
  for (const Named& m : an.metrics) v[m.name] = m.value;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = v.find(name);
    rep.metrics.push_back({name, it == v.end() ? 0.0 : it->second, unit});
    if (it != v.end()) v.erase(it);
  }
  if (!v.empty()) {
    for (const auto& kv : v)
      std::fprintf(stderr, "mcbench_harness: undeclared metric %s\n",
                   kv.first.c_str());
    rep.correct = false;
  }

  std::printf("%s", log.self_time_table().c_str());
  if (!a.spans.empty() && !log.write_jsonl(a.spans)) {
    std::fprintf(stderr, "mcbench_harness: cannot write spans to %s\n",
                 a.spans.c_str());
    rep.correct = false;
  }
  rep.digest = digest;
  rep.info_nums.push_back({"untraced_wall_s", wall, "s"});
  rep.info_nums.push_back({"traced_wall_s", traced, "s"});
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // At most four workers: enough to exercise the parallel paths, few enough
  // to leave a shared machine's other tenants room.
  const unsigned jobs =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::unique_ptr<Workload> w =
      make_workload(a.workload, WorkloadOptions{a.seed, jobs});
  if (!w) usage(("unknown workload " + a.workload).c_str());
  std::printf("mcbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d jobs=%u\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
              w->jobs());

  Report rep;
  rep.info_nums.push_back({"jobs", static_cast<double>(w->jobs()), "count"});
  int rc = 0;
  try {
    if (a.trace) run_traced(*w, a, rep);
    else run_untraced(*w, a, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcbench_harness: %s\n", e.what());
    rep.failed = std::max<std::uint64_t>(rep.failed, 1);
    rc = 1;
  }
  rep.attempted = std::max<std::uint64_t>(rep.attempted, 1);
  if (rep.failed != 0) rep.correct = false;
  rep.info_nums.push_back({"failed_ratio",
                           ratio(static_cast<double>(rep.failed),
                                 static_cast<double>(rep.attempted)),
                           "ratio"});
  rep.print();
  return rc;
}
