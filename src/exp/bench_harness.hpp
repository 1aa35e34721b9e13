#pragma once
/// \file bench_harness.hpp
/// The experiment binaries' one entry point, run_experiment(), and the CLI
/// and report plumbing it shares with the tools: the sweep flags (also
/// parsed by mobcache_simrun), guarded_main's exit-code contract, and the
/// machine-readable BENCH_<name>.json consumed by CI's perf-regression gate
/// (scripts/check_bench.py, docs/PARALLELISM.md).

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.hpp"
#include "exp/parallel.hpp"
#include "exp/result_store.hpp"

namespace mobcache {

class ExperimentRunner;

/// The value of `arg` when it is the `=`-flag `flag` ("--name="), else
/// nullopt. An empty value throws EnvError("--name needs <what>"), exit 2
/// under guarded_main: a `--metrics=` that silently fell back to a default
/// would hide a truncated shell variable.
std::optional<std::string> flag_value(const std::string& arg,
                                      const char* flag, const char* what);

/// Checked numeric flags over `args` (argv without the program name, or
/// SweepFlags::rest): the value of the last `--name=VALUE`, parsed by
/// parse_u64 / parse_double (common/env.hpp), or `fallback` when the flag is
/// absent. Garbage, an empty value or an out-of-range value throws EnvError
/// naming the flag (exit 2 under guarded_main).
std::uint64_t bench_flag_u64(const std::vector<std::string>& args,
                             const char* name, std::uint64_t fallback,
                             std::uint64_t min = 0,
                             std::uint64_t max = UINT64_MAX);
double bench_flag_double(const std::vector<std::string>& args,
                         const char* name, double fallback);

/// The sweep flags of every experiment binary and of mobcache_simrun:
///   --jobs=N               worker threads (0 = auto: MOBCACHE_JOBS, then
///                          hardware concurrency; the default)
///   --store-dir=PATH       open (or create) the result store at PATH
///   --resume               open the default store: MOBCACHE_RESULT_STORE
///                          when set, else results_path("result_store")
///   MOBCACHE_RESULT_STORE=PATH   same as --store-dir=PATH, no flag needed
///   --keep-going           failing points become manifest entries instead
///                          of aborting the sweep
///   --retry-failed         ignore poison records: quarantined points re-run
///   --point-deadline-ms=N  per-point wall-clock budget (0 = off)
struct SweepFlags {
  unsigned jobs = 1;  ///< --jobs resolved through effective_jobs()
  /// The selected store: --store-dir, else MOBCACHE_RESULT_STORE, else
  /// --resume's default; empty when none is selected.
  std::string store_dir;
  bool keep_going = false;
  bool retry_failed = false;
  std::uint64_t point_deadline_ms = 0;
  std::vector<std::string> rest;  ///< every other argument, in argv order

  /// The store at store_dir with retry_failed applied; null when none is
  /// selected (sweeps recompute everything).
  std::unique_ptr<ResultStore> open_store() const;

  /// --fail-points=i,j,... in `rest`: chaos injection, those point indices
  /// throw NumericError before simulating (testing/CI only). An element
  /// that is not a plain decimal in [0, points - 1] throws EnvError naming
  /// --fail-points.
  std::vector<std::size_t> fail_points(std::size_t points) const;
};

/// Parses the sweep flags out of argv. An empty value ("--store-dir=")
/// throws EnvError("--store-dir needs a path") and a malformed number
/// ("--jobs=abc") parse_u64's EnvError: exit 2 under guarded_main. Other
/// arguments go to `rest` unread.
SweepFlags parse_sweep_flags(int argc, char** argv);

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
                 const std::function<int(int, char**)>& real_main);

/// Writes a finished JsonWriter document under the results directory
/// (results_path(filename)). A file that cannot be written throws
/// std::runtime_error naming its path (exit 5 under guarded_main).
void write_json_results(const JsonWriter& w, const std::string& filename);

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

  /// Stops the clock, writes BENCH_<name>.json and prints its path (mirrors
  /// emit()'s [csv] line); throws as write_json_results() does.
  void write();

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

/// What run_experiment() hands an experiment.
struct ExperimentContext {
  ExperimentContext(std::string name, SweepFlags f);

  const SweepFlags flags;
  const std::unique_ptr<ResultStore> store;  ///< null when none is selected
  /// The experiment sets its points and headline results; run_experiment()
  /// adds the store counters and writes it.
  BenchReport report;

  /// Gives `runner` the flags' jobs and point deadline and the store.
  void configure(ExperimentRunner& runner) const;
};

/// The whole main of every experiment binary (bench/bench_eN_*.cpp):
///   int main(int argc, char** argv) {
///     return run_experiment("e3_static_sweep", argc, argv, run);
///   }
/// Under guarded_main("bench_<name>") with the cancellation handlers on, it
/// parses the sweep flags, opens the store they select, runs `body`, then
/// writes results_path("BENCH_<name>.json") with the store's counters and
/// returns body's exit code.
int run_experiment(const char* name, int argc, char** argv,
                   int (*body)(ExperimentContext&));

}  // namespace mobcache
