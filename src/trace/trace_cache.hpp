#pragma once
/// \file trace_cache.hpp
/// Process-wide immutable cache of synthesized workload traces.
///
/// Sweeps rerun the same (app, accesses, seed) suite under dozens of cache
/// configurations; regenerating multi-million-record traces per point used
/// to dominate sweep wall time. The cache generates each trace exactly once
/// — even under concurrent first requests — and hands out shared read-only
/// views. Traces are immutable after generation, so sharing across
/// SweepExecutor workers is race-free by construction.
///
/// The cache is keyed generically (this layer knows nothing about apps);
/// workload/suite.hpp provides the AppId-typed wrappers
/// (cached_app_trace / cached_suite). Its one remaining user is the
/// benchmark harness (mcbench/): ExperimentRunner owns its traces.
///
/// Memory is bounded: entries nobody currently references are evicted LRU
/// once the resident budget (MOBCACHE_TRACE_CACHE_MB, default 1024) is
/// exceeded. Entries still referenced by a caller are never evicted, so
/// a returned pointer stays valid for as long as the caller holds it; pinned
/// entries can push residency over budget transiently, and the budget is
/// re-enforced on every subsequent access (hit or publish), not just when
/// the capacity changes.

#include <cstdint>
#include <functional>
#include <memory>

#include "trace/trace.hpp"

namespace mobcache {

/// Cache key. `domain` namespaces producers (workload/suite uses the app
/// id); `accesses`/`seed` mirror the generator configuration.
struct TraceCacheKey {
  std::uint64_t domain = 0;
  std::uint64_t accesses = 0;
  std::uint64_t seed = 0;

  bool operator==(const TraceCacheKey& o) const {
    return domain == o.domain && accesses == o.accesses && seed == o.seed;
  }
};

class TraceCache {
 public:
  /// The process-wide instance (benches, tools and tests share it).
  static TraceCache& instance();

  /// Returns the cached trace for `key`, invoking `generate` exactly once
  /// process-wide on first request. Concurrent requests for the same key
  /// block (without holding the cache lock) until the generating thread
  /// publishes, then share its result.
  std::shared_ptr<const Trace> get_or_generate(
      const TraceCacheKey& key, const std::function<Trace()>& generate);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< generations started
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t resident_entries = 0;
  };
  Stats stats() const;

  /// Resident-byte budget; shrinking it evicts unreferenced entries now.
  void set_capacity_bytes(std::uint64_t bytes);
  std::uint64_t capacity_bytes() const;

  /// Drops every unreferenced entry and resets the statistics counters.
  void clear();

  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

 private:
  TraceCache();
  ~TraceCache();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mobcache
