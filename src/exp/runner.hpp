#pragma once
/// \file runner.hpp
/// Workload-suite × scheme experiment driver with baseline normalization —
/// the engine behind every bench binary.
///
/// Every run_* entry point is one (design × workload) grid (run_multi_seed:
/// one per seed) executed by run_designs_outcomes() on a SweepExecutor
/// (exp/parallel.hpp): set `jobs` > 1 (or 0 = auto) and the cells are
/// sharded across worker threads.
/// Results are assembled in cell-index order and every cell is a pure
/// function of its index, so a parallel run is bit-identical to `jobs = 1`.
/// The runner owns its suite: the (apps, accesses, seed) constructor
/// generates one trace per app on the executor, and the traces are shared
/// read-only by every cell and by any runner built over them, then freed
/// with the last runner that holds them.
///
/// When a grid computes two or more designs over one trace, the L1 front
/// end of that trace is simulated once per call: the first cell to compute
/// on the trace builds its L1MissIndex (sim/batch.hpp) and every design cell
/// of the trace replays from it, byte-identical to simulate()
/// (docs/SWEEP_ENGINE.md).
///
/// Attach a ResultStore (exp/result_store.hpp) via `result_store` and every
/// deterministic (scheme × workload) cell is memoized across process
/// lifetimes: cells whose content key is already stored are served without
/// re-simulation, freshly computed cells are persisted as they finish, and a
/// killed sweep resumes from its last completed point. Keep-going calls also
/// quarantine: a failing cell persists a poison record, and later
/// keep-going calls fail it from that record instead of re-running it
/// (docs/RESULT_STORE.md).

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "exp/parallel.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {

class ResultStore;

/// One point of a multi-design sweep grid (ExperimentRunner::run_designs): a
/// named L2 factory plus its memoization identity. The factory is invoked
/// once per workload, possibly from worker threads — building fresh objects
/// from captured read-only state is the contract. A builder that runs after
/// the scope that declared it has ended (an experiment declares its rows,
/// then runs the grid) must capture by value.
/// `design_hash` opts the point into result-store memoization and
/// poison-record quarantine: a content hash covering every parameter the
/// builder bakes into the design (use ContentHasher); without it the
/// point's cells are never served from the store. `kind` is carried onto
/// SchemeSuiteResult::kind when set.
struct DesignSpec {
  std::string name;
  std::function<std::unique_ptr<L2Interface>()> build;
  std::optional<std::uint64_t> design_hash;
  std::optional<SchemeKind> kind;
};

/// The DesignSpec of a built-in scheme: its scheme_name(), a build_scheme()
/// builder and a content hash of (kind, params), so the same scheme
/// memoizes into the same result-store records in every grid it joins.
DesignSpec scheme_design(SchemeKind kind, const SchemeParams& params = {});

/// Throws NumericError (naming the scheme and workload) when any
/// energy/timing lane of `r` is NaN or infinite. The runner calls this on
/// every simulate() return — before the result can reach a result store,
/// a JSON artifact, or a normalization divide — so numeric garbage fails
/// the point loudly instead of silently poisoning downstream aggregates.
void validate_sim_result_finite(const SimResult& r);

/// One scheme evaluated over a suite.
struct SchemeSuiteResult {
  SchemeKind kind = SchemeKind::BaselineSram;
  std::string name;
  std::vector<SimResult> per_workload;  ///< aligned with the suite order

  /// Normalized-to-baseline aggregates (geomean over workloads); filled by
  /// ExperimentRunner when a baseline is present.
  double norm_cache_energy = 1.0;
  double norm_total_energy = 1.0;
  double norm_exec_time = 1.0;
  double avg_miss_rate = 0.0;
};

class ExperimentRunner {
 public:
  /// `apps` defines the suite: trace i is generate_app_trace(apps[i],
  /// accesses, seed). The traces are generated as one SweepExecutor task per
  /// app on effective_jobs(0) workers (MOBCACHE_JOBS, else the hardware
  /// threads), at most one per app — not on `jobs`: each trace is a pure
  /// function of its app, and generation runs no caller code, so any worker
  /// count builds the same suite.
  ExperimentRunner(std::vector<AppId> apps, std::uint64_t accesses,
                   std::uint64_t seed = 1);

  /// A runner over an existing suite, typically another runner's apps() and
  /// traces(): nothing is generated, and the two runners share the Trace
  /// objects. Use it to evaluate one suite under several SimOptions or
  /// technology settings.
  ExperimentRunner(std::vector<AppId> apps,
                   std::vector<std::shared_ptr<const Trace>> traces);

  /// Uses pre-generated traces (e.g. loaded from disk) instead of
  /// synthesizing a suite.
  explicit ExperimentRunner(std::vector<Trace> traces);

  /// Runs several schemes as one flat (scheme × workload) sweep — the
  /// maximum-parallelism path. No normalization is applied.
  std::vector<SchemeSuiteResult> run_schemes(
      const std::vector<SchemeKind>& kinds,
      const SchemeParams& params = {}) const;

  /// Runs a sweep grid of designs (one suite evaluation per spec), in spec
  /// order, as flat (spec × workload) cells on `jobs` workers. Fail-fast:
  /// the first failing point aborts the sweep. Declare an experiment's rows
  /// once and run them as one call per SimOptions and technology scope: each
  /// call simulates a trace's L1 front end at most once, however many rows
  /// it holds.
  std::vector<SchemeSuiteResult> run_designs(
      const std::vector<DesignSpec>& specs) const;

  /// Keep-going flavour of run_designs(): a failing spec becomes a
  /// PointFailure in its outcome slot (index = spec index, the error of its
  /// lowest failing workload) instead of aborting; cancellation still
  /// propagates. `point_hook`, when set, runs once per spec in ascending
  /// spec order before any cell (chaos injection seam — a throwing hook
  /// fails that spec, and nothing is persisted for it). With keep_going ==
  /// false this *is* run_designs(), returned in outcome form.
  ///
  /// With a store, each cell of a keyed spec resolves to a stored value,
  /// then — keep-going only — to a poison record (skipped when
  /// retry_failed() is set), which fails the spec with `quarantined` set
  /// and the cell is not run, then to a fresh computation. A keep-going
  /// cell that throws anything but cancellation persists a poison record
  /// before its failure is reported. Fail-fast calls neither read nor
  /// write poison.
  ///
  /// This is the one grid implementation behind every run_* entry point.
  /// Cells run workload-major, so workers start on different traces; a
  /// batch-eligible call that computes two or more cells on a trace replays
  /// them from that trace's L1MissIndex, built at most once by the first of
  /// them and freed after the last of them, at the latest when the call
  /// returns. Other cells call simulate().
  std::vector<PointOutcome<SchemeSuiteResult>> run_designs_outcomes(
      const std::vector<DesignSpec>& specs, bool keep_going,
      const std::function<void(std::size_t)>& point_hook = {}) const;

  /// Runs all headline schemes and normalizes against the first (baseline).
  std::vector<SchemeSuiteResult> run_headline(
      const SchemeParams& params = {}) const;

  /// Normalizes `results` in place against `results[0]` per workload, then
  /// geomeans across workloads.
  static void normalize(std::vector<SchemeSuiteResult>& results);

  const std::vector<std::shared_ptr<const Trace>>& traces() const {
    return traces_;
  }
  /// Convenience view of one suite trace.
  const Trace& trace(std::size_t i) const { return *traces_[i]; }
  const std::vector<AppId>& apps() const { return apps_; }

  /// Content fingerprints of the suite traces (aligned with traces()).
  /// Computed once per runner, on first use — only memoized paths pay for
  /// them. Thread-safe: run_* methods may race on the first call.
  const std::vector<std::uint64_t>& trace_hashes() const;

  SimOptions sim_options;  ///< shared hierarchy/timing configuration

  /// Worker threads for this runner's (scheme × workload) cells. 1 = serial
  /// (the default — library users opt in), 0 = auto (MOBCACHE_JOBS env,
  /// then hardware concurrency), N = exactly N. Results are identical for
  /// every value; only wall-clock changes. Suite generation does not read
  /// it (see the constructor).
  unsigned jobs = 1;

  /// Persistent memoization of completed cells (null = off); only cells of
  /// specs with a design_hash are keyed.
  ResultStore* result_store = nullptr;

  /// Read by nothing: every grid shares one L1 pass per trace whatever its
  /// value. It stays only because the benchmark harness (mcbench/) still
  /// assigns it.
  unsigned sweep_batch = 1;

 private:
  bool memoizable() const;
  /// Per-cell content keys for a (design × workload) grid slice.
  std::vector<std::uint64_t> cell_keys(std::uint64_t design_hash) const;

  std::vector<AppId> apps_;
  std::vector<std::shared_ptr<const Trace>> traces_;
  mutable std::once_flag trace_hash_once_;
  mutable std::vector<std::uint64_t> trace_hashes_;
};

/// One point of the error-rate × energy/CPI resilience sweep (bench E21):
/// a scheme rerun with fault injection at `rate`, normalized against the
/// same scheme at rate 0 over the same traces. Absolute counters are summed
/// across the suite's workloads.
struct FaultSweepPoint {
  double rate = 0.0;
  double norm_cache_energy = 1.0;  ///< geomean vs the rate-0 run
  double norm_exec_time = 1.0;
  double avg_miss_rate = 0.0;
  std::uint64_t ecc_corrections = 0;
  std::uint64_t fault_losses = 0;     ///< uncorrectable detected losses
  std::uint64_t dirty_losses = 0;     ///< losses that dropped dirty data
  std::uint64_t scrub_repairs = 0;    ///< decayed blocks healed by scrub
  std::uint64_t quarantined_ways = 0; ///< summed over workload runs
};

/// Runs `kind` across `rates` (plus a rate-0 reference) over this runner's
/// traces. `tmpl.fault` supplies the non-rate fault knobs (ECC kind,
/// quarantine threshold, seed); each point swaps in
/// FaultConfig::from_rate(rate, ...) derived from it. rates containing 0.0
/// produce an exactly-1.0 normalized point — the bit-identity anchor.
/// Executes as one runner.run_designs() grid of (rate × workload) cells, so
/// it shares the runner's workers, memoization and L1 passes.
std::vector<FaultSweepPoint> run_fault_sweep(const ExperimentRunner& runner,
                                             SchemeKind kind,
                                             const std::vector<double>& rates,
                                             const SchemeParams& tmpl = {});

/// Mean and sample standard deviation of a normalized metric across seeds.
struct SeedStat {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// One scheme's cross-seed statistics.
struct MultiSeedResult {
  SchemeKind kind = SchemeKind::BaselineSram;
  std::string name;
  SeedStat cache_energy;
  SeedStat exec_time;
  SeedStat miss_rate;
};

/// Runs `schemes` over fresh suites generated from each seed, normalizing
/// against schemes.front() per seed, and aggregates across seeds. This is
/// the statistical-rigor pass: a conclusion that does not survive the seed
/// noise band is not a conclusion (bench E14).
///
/// Each seed is one run_schemes() call on a runner with `jobs` workers and
/// `store` attached, so the seed's (scheme × workload) cells share the
/// runner's executor, memoization and one L1 pass per trace. Seeds run in
/// order and the cross-seed statistics accumulate in seed order, so `jobs`
/// does not change a single output bit. Use derived_seeds(base, n)
/// (exp/parallel.hpp) to build the seed list from one base seed.
std::vector<MultiSeedResult> run_multi_seed(
    const std::vector<AppId>& apps, std::uint64_t accesses,
    const std::vector<std::uint64_t>& seeds,
    const std::vector<SchemeKind>& schemes,
    const SchemeParams& params = {}, unsigned jobs = 1,
    ResultStore* store = nullptr);

}  // namespace mobcache
