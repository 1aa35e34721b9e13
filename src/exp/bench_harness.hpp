#pragma once
/// \file bench_harness.hpp
/// Shared CLI + perf-report plumbing for the bench binaries: --jobs parsing
/// (with the MOBCACHE_JOBS environment override) and the machine-readable
/// BENCH_<name>.json consumed by CI's perf-regression gate
/// (scripts/check_bench.py, docs/PARALLELISM.md).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.hpp"
#include "exp/parallel.hpp"
#include "exp/result_store.hpp"

namespace mobcache {

/// Checked numeric flags: the value of the last `--name=VALUE` in argv,
/// parsed by parse_u64 / parse_double (common/env.hpp), or `fallback` when
/// the flag is absent. Garbage, an empty value or an out-of-range value
/// throws EnvError naming the flag (exit 2 under guarded_main).
std::uint64_t bench_flag_u64(int argc, char** argv, const char* name,
                             std::uint64_t fallback, std::uint64_t min = 0,
                             std::uint64_t max = UINT64_MAX);
double bench_flag_double(int argc, char** argv, const char* name,
                         double fallback);

/// Worker count for a bench binary: --jobs=N from argv when present (0 =
/// auto), else effective_jobs(0) (MOBCACHE_JOBS, then hardware
/// concurrency). Other arguments are left alone so benches stay forgiving
/// about extra flags.
unsigned bench_jobs(int argc, char** argv);

/// Resumable-sweep opt-in shared by the bench binaries (and simrun):
///   --store-dir=PATH   open (or create) the result store at PATH
///   --resume           open the default store: MOBCACHE_RESULT_STORE when
///                      set, else results_path("result_store")
///   MOBCACHE_RESULT_STORE=PATH   same as --store-dir=PATH, no flag needed
/// Returns null when none of the three are present (sweeps recompute
/// everything, exactly as before).
std::unique_ptr<ResultStore> bench_result_store(int argc, char** argv);

/// Fault-supervision CLI shared by sweep binaries (docs/RELIABILITY.md):
///   --keep-going           failing points become manifest entries instead
///                          of aborting the sweep
///   --retry-failed         ignore poison records — quarantined points re-run
///   --point-deadline-ms=N  per-point wall-clock budget (0 = off)
///   --fail-points=i,j,...  chaos injection: those point indices throw
///                          NumericError before simulating (testing/CI only)
/// bench_fail_points checks every index against the sweep's `points` (>= 1):
/// an element that is not a plain decimal in [0, points - 1] — empty, signed,
/// padded, overflowing or past the last point — throws EnvError naming
/// --fail-points (exit 2 under guarded_main).
bool bench_keep_going(int argc, char** argv);
bool bench_retry_failed(int argc, char** argv);
std::uint64_t bench_point_deadline_ms(int argc, char** argv);
std::vector<std::size_t> bench_fail_points(int argc, char** argv,
                                           std::size_t points);

/// The --fail-points hook: throws NumericError("injected chaos fault") when
/// `index` is in `fail_points`. Pass it as run_designs_outcomes'
/// `point_hook`: it runs before any cell of the point, so an injected
/// failure is reported but never persisted as a poison record.
void chaos_maybe_fail(const std::vector<std::size_t>& fail_points,
                      std::size_t index);

/// Wraps a tool/bench main in the error-taxonomy contract: installs the
/// SIGINT/SIGTERM cancellation handlers when asked (sweep binaries only —
/// tools that should die on Ctrl-C pass false), runs `real_main`, and maps
/// any escaping exception to a one-line stderr diagnostic plus its
/// documented exit code (exit_code_for; cancellation exits 75, resumable).
int guarded_main(const char* tool, bool install_signals, int argc, char** argv,
                 int (*real_main)(int, char**));

/// Writes a finished JsonWriter document under the results directory
/// (results_path(filename)); returns success.
bool write_json_results(const JsonWriter& w, const std::string& filename);

/// Peak resident set size of this process so far, in bytes (getrusage
/// max_rss). Every BENCH_*.json records it — the E22 fleet gate compares it
/// across session counts to prove the streaming pipeline's memory ceiling is
/// independent of fleet size (docs/SWEEP_ENGINE.md).
std::uint64_t peak_rss_bytes();

/// Wall-clock + headline-metric record for one bench run, written as
/// results_path("BENCH_<name>.json").
///
/// Layout contract: the top-level timing fields (jobs, wall_ms,
/// points_per_sec) vary run to run; everything under "results" must be a
/// deterministic function of the sweep definition — check_bench.py asserts
/// the "results" objects of a --jobs=1 and a --jobs=N run are identical,
/// and computes the wall-clock speedup from the timing fields.
class BenchReport {
 public:
  /// Starts the wall clock. `name` becomes BENCH_<name>.json.
  BenchReport(std::string name, unsigned jobs);

  /// Number of sweep points executed (0 points fails the CI gate).
  void set_points(std::uint64_t points) { points_ = points; }

  /// Adds one deterministic headline metric to the "results" section.
  void add_result(const std::string& key, double value);

  /// Adds one top-level *run fact* — a number that, like wall_ms, describes
  /// this run rather than the sweep definition (e.g. E22's sessions_per_s).
  /// Run facts live outside "results" so check_bench.py's determinism
  /// compare never sees them.
  void add_run_fact(const std::string& key, double value);

  /// Result-store counters for this run, written as the top-level
  /// "result_store" object (hits/misses/stores/corrupt_skipped/loaded and
  /// the poison counters). Like the timing fields these vary run to run —
  /// a warm run reports hits where a cold one reported misses — so they
  /// live *outside* "results" and never break the determinism gate. Call
  /// with the store's stats() right before write(); without a store the
  /// object reports zeros.
  void set_store_stats(const ResultStoreStats& s) { store_stats_ = s; }

  /// Adds one keep-going point failure to the manifest. `point` is a
  /// human-stable label for the failing point (e.g. its pairing name).
  /// write() derives the "sweep" counters from the manifest:
  /// completed = points - failed, failed = manifest size, quarantined =
  /// entries served from poison records.
  void add_point_failure(const PointFailure& f, std::string point);

  double wall_ms() const;

  /// Stops the clock and writes BENCH_<name>.json; returns success and
  /// prints the path (mirrors emit()'s [csv] line).
  bool write();

 private:
  struct ManifestEntry {
    std::string point;
    std::string error_type;
    std::string message;
    bool quarantined = false;
  };

  std::string name_;
  unsigned jobs_;
  std::uint64_t points_ = 0;
  std::vector<std::pair<std::string, double>> results_;
  std::vector<std::pair<std::string, double>> run_facts_;
  std::vector<ManifestEntry> failures_;
  ResultStoreStats store_stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mobcache
