#pragma once
/// \file bench.hpp
/// Shared pieces of the mcbench harness: host clocks, the in-memory span log,
/// the design list a workload sweeps, the per-layer analysis pass, and the
/// Workload interface the four workloads implement.
///
/// Every span is recorded here, in the benchmark, around a call into one of
/// the library's public entry points; nothing inside the library is
/// instrumented.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheme.hpp"
#include "sim/simulator.hpp"

namespace mcbench {

using namespace mobcache;

/// Host wall-clock seconds (steady clock, arbitrary origin).
double wall_now();
/// Process user + system CPU seconds so far.
double cpu_now();
/// Process peak resident set size in MiB.
double peak_rss_mib();

double median(std::vector<double> v);
/// num / den, or 0 when den is 0.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// 64-bit FNV-1a, used for the per-workload result digest.
class Digest {
 public:
  void add(std::string_view s);
  void add(double v);  ///< mixes the %.17g rendering (exact round trip)
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Spans kept in memory and written out once the run ends. Thread-safe: a
/// span's parent is the innermost span open on the same thread.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t thread = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int64_t id_;
  };

  /// Summed duration of every span called `name`.
  double total(std::string_view name) const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(std::string_view name) const;
  /// One line per span name: count, total and self time (total minus the
  /// time covered by its child spans).
  std::string self_time_table() const;
  /// Writes one JSON object per span; returns success.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t open(std::string name);
  void close(std::int64_t id);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Runs fn() inside a span called `name` and adds its duration to `acc`.
template <typename Fn>
auto timed(SpanLog& log, const char* name, double& acc, Fn&& fn) {
  SpanLog::Scope scope(log, name);
  struct Add {
    double& acc;
    double t0;
    ~Add() { acc += wall_now() - t0; }
  } add{acc, wall_now()};
  return fn();
}

/// One L2 design of a workload's grid.
struct Design {
  std::string name;
  SchemeKind kind = SchemeKind::BaselineSram;
  SchemeParams params;
};

std::unique_ptr<L2Interface> build(const Design& d);

/// What the serial per-layer analysis pass measured over a set of traces and
/// designs (layer_split below).
struct LayerSplit {
  std::uint64_t records = 0;        ///< trace records fed to the L1 pass
  std::uint64_t demand = 0;         ///< L2 demand accesses captured
  std::uint64_t lane_accesses = 0;  ///< demand × lanes replayed
  double l1_s = 0.0;                ///< build_demand_stream
  double replay_s = 0.0;            ///< simulate_batch_lanes
  double kernel_s = 0.0;            ///< bare SetAssocCache::access replay
  std::uint64_t kernel_accesses = 0;
  std::uint64_t checked = 0;     ///< lane results compared with `expected`
  std::uint64_t mismatched = 0;  ///< ... that failed or whose bytes differed
  std::vector<SimResult> lanes;  ///< every matching lane result
};

/// For each trace (serially): runs the shared L1 pass, builds every design,
/// replays the demand stream into all of them at once, and replays the same
/// demand lines through bare SetAssocCache arrays at each design's geometry.
/// Each lane result is compared with `expected`, the result_to_record_json
/// bytes of the same cell indexed [design * traces + trace].
LayerSplit layer_split(const std::vector<const Trace*>& traces,
                       const std::vector<Design>& designs,
                       const SimOptions& opts,
                       const std::vector<std::string>& expected,
                       SpanLog& log);

/// Replays one design cell through the batched engine (L1 pass + one lane)
/// and compares it with `expected`; true when the bytes match.
bool batched_cell_matches(const Trace& trace, const Design& design,
                          const SimOptions& opts, const std::string& expected);

/// Outcome of one timed iteration.
struct RunOutput {
  std::uint64_t points = 0;       ///< design × input cells; a failure throws
  std::uint64_t sim_records = 0;  ///< trace records × design lanes
  std::string digest;             ///< over every simulated statistic
};

/// Named numbers a workload reports besides the timings.
struct Named {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of the traced run's analysis pass.
struct Analysis {
  std::vector<Named> metrics;  ///< per-layer metrics this workload measures
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and constructs the runner (timed as setup_s).
  virtual void setup() = 0;
  /// Drops every input, including the process-wide trace cache, so the next
  /// setup() starts cold.
  virtual void teardown() = 0;
  /// The timed region.
  virtual RunOutput run() = 0;
  /// The same call as run(), with spans around each library call it makes.
  virtual RunOutput run_traced(SpanLog& log) = 0;
  /// Untraced output check outside the timed region: recomputes a sample of
  /// the last run's cells through a second code path. Returns {checked,
  /// mismatched}.
  virtual std::pair<std::uint64_t, std::uint64_t> spot_check() = 0;
  /// The traced run's serial per-layer pass, including the full output check.
  virtual Analysis analyse(SpanLog& log) = 0;
  /// Informational model numbers (never compared as better or worse).
  virtual std::vector<Named> model_report() const { return {}; }
  /// Worker threads the timed region uses.
  virtual unsigned jobs() const = 0;
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  unsigned jobs = 1;
};

/// "headline", "sweep", "fleet" or "telemetry"; null for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts);

}  // namespace mcbench
