#pragma once
/// \file scenario.hpp
/// Multitasking scenarios: several apps time-sliced on one core with
/// context-switch kernel activity between slices.
///
/// Phones run a foreground app plus rotating background work (music, sync,
/// notifications). A scenario trace interleaves per-app traces in random
/// foreground slices; each switch emits the kernel's scheduler/binder/fault
/// work. App user address spaces are disjoint (separate processes); the
/// kernel address space is shared by all of them — which concentrates even
/// more reuse in the kernel segment, strengthening the partitioning story
/// (experiment E11).
///
/// Two producers exist: generate_scenario() materializes the whole session,
/// and ScenarioStream emits the identical record sequence chunk by chunk
/// with O(apps · chunk) memory — the E22 fleet path. On top of them,
/// PopulationModel/sample_session() draw whole sessions from device-mix and
/// app-mix distributions (docs/WORKLOADS.md), which is how the fleet sweep
/// turns one base seed into millions of distinct-but-reproducible users.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"
#include "workload/app_model.hpp"

namespace mobcache {

struct ScenarioConfig {
  std::vector<AppId> apps;
  std::uint64_t total_accesses = 4'000'000;
  /// Mean records per foreground slice (~a few UI frames).
  std::uint64_t slice_mean = 200'000;
  std::uint64_t seed = 1;
};

/// Generates the interleaved trace. Apps appear round-robin with
/// geometrically distributed slice lengths; user addresses are relocated
/// into per-app slots, kernel addresses are shared. Deterministic in the
/// seed; result satisfies Trace::modes_consistent_with_addresses().
Trace generate_scenario(const ScenarioConfig& cfg);

/// Streaming producer of the exact generate_scenario() record sequence.
/// Per-app source traces are themselves AppTraceStreams pulled lazily, in
/// small chunks so that only the records the session reads get generated,
/// and restarted on exhaustion — a restart replays the identical per-app
/// sequence, which is precisely what the materialized path's cursor
/// wrap-around (`cursor % src.size()`) does, so neither the sources nor the
/// interleaved session ever exist fully in memory.
class ScenarioStream final : public TraceStream {
 public:
  explicit ScenarioStream(const ScenarioConfig& cfg);
  ~ScenarioStream() override;

  const std::string& name() const override;
  std::span<const Access> next_chunk() override;
  void reset() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Address-slot stride separating two apps' user address spaces.
inline constexpr Addr kAppSlotStride = 1ull << 44;

/// One device tier in the fleet population (entry / mid-range / flagship):
/// how likely it is, how long its sessions run, and how fast it switches
/// between foreground apps.
struct DeviceClassSpec {
  std::string name;
  double weight = 1.0;                      ///< unnormalized draw weight
  std::uint64_t session_accesses = 2'000'000;
  std::uint64_t slice_mean = 100'000;
};

/// Fleet session distribution: device tiers plus per-app popularity. A
/// session is a device draw, an app-count draw, and a without-replacement
/// weighted draw of that many distinct apps.
struct PopulationModel {
  std::vector<DeviceClassSpec> devices;
  /// Unnormalized popularity per AppId (index = AppId value). Shorter
  /// vectors are padded with weight 1.0; zero-weight apps are never drawn.
  std::vector<double> app_weights;
  std::uint32_t min_apps = 1;
  std::uint32_t max_apps = 4;

  /// The default fleet mix used by E22: three device tiers with session
  /// lengths 0.5× / 1× / 2× `mean_session_accesses`, and app popularity
  /// skewed toward the interactive apps (messaging/browser/social top;
  /// compute controls rare).
  static PopulationModel default_mix(
      std::uint64_t mean_session_accesses = 2'000'000);
};

/// Draws one session configuration from the population. Pure function of
/// (model, seed): the fleet sampler feeds sweep_point_seed(base, session)
/// here, so session i is the same user on every run, shard layout and
/// --jobs value. The returned config's seed is `seed` itself.
ScenarioConfig sample_session(const PopulationModel& model,
                              std::uint64_t seed);

}  // namespace mobcache
