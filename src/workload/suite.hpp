#pragma once
/// \file suite.hpp
/// Convenience entry points for the evaluation suite.

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/trace.hpp"
#include "workload/app_model.hpp"

namespace mobcache {

/// Generates one app's trace with `accesses` records.
Trace generate_app_trace(AppId id, std::uint64_t accesses,
                         std::uint64_t seed = 1);

/// TraceCache-backed app trace: generated once process-wide per
/// (app, accesses, seed), then shared read-only. ExperimentRunner owns its
/// traces and does not use the cache; the benchmark harness (mcbench/)
/// does.
std::shared_ptr<const Trace> cached_app_trace(AppId id,
                                              std::uint64_t accesses,
                                              std::uint64_t seed = 1);

/// TraceCache-backed suite (one shared trace per app).
std::vector<std::shared_ptr<const Trace>> cached_suite(
    const std::vector<AppId>& apps, std::uint64_t accesses_per_app,
    std::uint64_t seed = 1);

/// Trace length used by the bench binaries: the MOBCACHE_TRACE_LEN
/// environment variable when set (records per app), else `fallback`.
std::uint64_t bench_trace_len(std::uint64_t fallback = 2'000'000);

}  // namespace mobcache
