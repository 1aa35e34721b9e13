#pragma once
/// \file parallel.hpp
/// Work-stealing sweep execution engine.
///
/// Every paper result in this repo is a sweep over independent points
/// (retention pairing × workload, fault rate × workload, seed × scheme, …).
/// SweepExecutor shards such a point vector across worker threads and
/// assembles results in *point-index* order, so a parallel run is
/// bit-identical to a serial one. Two disciplines make that hold:
///
///  1. **Index-pure points.** A point's work must be a pure function of its
///     index (and of state captured before the sweep starts). Any randomness
///     must be seeded via sweep_point_seed(base, index) — never from a
///     running counter or from execution order.
///  2. **Thread-confined state.** The active TechnologyConfig is
///     thread-local; the executor captures the submitting thread's
///     configuration and re-applies it on every worker, so ScopedTechnology
///     overrides (sensitivity/DVFS sweeps) compose with parallelism.
///
/// See docs/PARALLELISM.md for the full contract.

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace mobcache {

/// One failed sweep point, captured as data instead of an in-flight
/// exception: the taxonomy label and message survive serialization into
/// failure manifests and poison records, the index keys the failure back
/// into the point vector.
struct PointFailure {
  std::size_t index = 0;
  std::string error_type;  ///< error_type_of(): "trace", "numeric", ...
  std::string message;
  /// True when the failure was *served from the result store* (a poison
  /// record from an earlier run) rather than observed live — the point was
  /// quarantined, not re-run.
  bool quarantined = false;
};

/// Converts an in-flight exception into a PointFailure record.
PointFailure point_failure_from(std::size_t index, const std::exception_ptr& e);

/// What one sweep point produced under the keep-going policy: exactly one
/// of value/failure is set.
template <typename R>
struct PointOutcome {
  std::optional<R> value;
  std::optional<PointFailure> failure;
  bool ok() const { return value.has_value(); }
};

/// Resolves a worker count: `requested` when nonzero, else the MOBCACHE_JOBS
/// environment variable, else std::thread::hardware_concurrency() (min 1).
unsigned effective_jobs(unsigned requested = 0);

/// Deterministic per-point seed: a splitmix64-style mix of
/// (base_seed, point_index). Distinct indices give decorrelated streams and
/// the result never depends on which worker runs the point, or when.
std::uint64_t sweep_point_seed(std::uint64_t base_seed,
                               std::uint64_t point_index);

/// `count` seeds derived from one base seed — the canonical way to build a
/// multi-seed sweep (seed i is a pure function of (base_seed, i), so the
/// serial and parallel paths agree by construction).
std::vector<std::uint64_t> derived_seeds(std::uint64_t base_seed,
                                         std::size_t count);

/// Shards [0, n) across workers. Worker w starts on the contiguous block
/// shard w and steals from the tail of other shards when its own runs dry,
/// so imbalanced sweeps (points with very different costs) still saturate
/// the pool. The calling thread participates as worker 0.
class SweepExecutor {
 public:
  /// jobs = 0 resolves via effective_jobs() (env override, then hardware).
  explicit SweepExecutor(unsigned jobs = 0);

  unsigned jobs() const { return jobs_; }

  /// Runs fn(i) for every i in [0, n); results are returned in index order
  /// regardless of execution order. If any point throws, the sweep stops
  /// handing out new points, all workers are joined, and the exception from
  /// the lowest-indexed point *observed* to fail is rethrown (fail-fast:
  /// points not yet started are skipped, so an even lower-indexed point may
  /// never have run) — a throwing point fails the sweep, it never deadlocks
  /// it.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) const
      -> std::vector<decltype(fn(std::size_t{0}))> {
    using R = decltype(fn(std::size_t{0}));
    std::vector<std::optional<R>> slots(n);
    for_each(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// Void flavour of map() with the same sharding/exception semantics.
  /// With jobs() == 1 (or n <= 1) everything runs inline on the caller —
  /// the serial path is the same code the parallel path must match.
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& fn) const;

  /// Keep-going flavour of for_each(): a throwing point no longer aborts
  /// the sweep — it becomes a PointFailure passed to on_failure and the
  /// remaining points still run. Two failure classes are still fail-fast
  /// by design: cancellation (CancelledError must stop the whole sweep, not
  /// be swallowed as one bad point) propagates out, and so does anything
  /// thrown by on_failure itself. on_failure is invoked under the
  /// executor's error lock (serialized, but from worker threads) once per
  /// failing point; point order within the callback stream is
  /// timing-dependent, so callers needing order must key by
  /// PointFailure::index.
  void for_each_outcomes(
      std::size_t n, const std::function<void(std::size_t)>& fn,
      const std::function<void(PointFailure&&)>& on_failure) const;

 private:
  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           const std::function<void(PointFailure&&)>* on_failure) const;

  unsigned jobs_ = 1;
};

}  // namespace mobcache
