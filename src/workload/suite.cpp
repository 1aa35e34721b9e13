#include "workload/suite.hpp"

#include "common/env.hpp"
#include "trace/trace_cache.hpp"
#include "workload/generator.hpp"

namespace mobcache {

Trace generate_app_trace(AppId id, std::uint64_t accesses,
                         std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.target_accesses = accesses;
  cfg.seed = seed;
  return generate_trace(make_app(id), cfg);
}

std::shared_ptr<const Trace> cached_app_trace(AppId id,
                                              std::uint64_t accesses,
                                              std::uint64_t seed) {
  TraceCacheKey key;
  key.domain = static_cast<std::uint64_t>(id);
  key.accesses = accesses;
  key.seed = seed;
  return TraceCache::instance().get_or_generate(
      key, [&] { return generate_app_trace(id, accesses, seed); });
}

std::vector<std::shared_ptr<const Trace>> cached_suite(
    const std::vector<AppId>& apps, std::uint64_t accesses_per_app,
    std::uint64_t seed) {
  std::vector<std::shared_ptr<const Trace>> traces;
  traces.reserve(apps.size());
  for (AppId id : apps)
    traces.push_back(cached_app_trace(id, accesses_per_app, seed));
  return traces;
}

std::uint64_t bench_trace_len(std::uint64_t fallback) {
  return env_u64_or("MOBCACHE_TRACE_LEN", fallback, 1, 100'000'000'000ull);
}

}  // namespace mobcache
