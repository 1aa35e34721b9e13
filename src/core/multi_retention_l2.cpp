#include "core/multi_retention_l2.hpp"

namespace mobcache {

std::function<void(const EvictionEvent&)> LifetimeRecorder::observer() {
  return [this](const EvictionEvent& e) { on_eviction(e); };
}

void LifetimeRecorder::on_eviction(const EvictionEvent& e) {
  const int m = static_cast<int>(e.owner);
  const Cycle res =
      e.evict_cycle >= e.fill_cycle ? e.evict_cycle - e.fill_cycle : 0;
  const Cycle live =
      e.last_access >= e.fill_cycle ? e.last_access - e.fill_cycle : 0;
  residency_[m].add(res);
  liveness_[m].add(live);
  dead_[m].add(res >= live ? res - live : 0);
  reuse_[m].add(static_cast<double>(e.access_count));
}

void LifetimeRecorder::merge(const LifetimeRecorder& o) {
  for (int m = 0; m < kModeCount; ++m) {
    residency_[m].merge(o.residency_[m]);
    liveness_[m].merge(o.liveness_[m]);
    dead_[m].merge(o.dead_[m]);
    reuse_[m].merge(o.reuse_[m]);
  }
}

RetentionClass RetentionAdvisor::recommend(const Log2Histogram& liveness,
                                           double coverage) {
  for (RetentionClass r : {RetentionClass::Lo, RetentionClass::Mid}) {
    const Cycle period = retention_cycles_of(r);
    if (liveness.fraction_below(period) >= coverage) return r;
  }
  return RetentionClass::Hi;
}

StaticPartitionConfig make_mrstt_config(std::uint64_t user_bytes,
                                        std::uint32_t user_assoc,
                                        RetentionClass user_r,
                                        std::uint64_t kernel_bytes,
                                        std::uint32_t kernel_assoc,
                                        RetentionClass kernel_r,
                                        RefreshPolicy policy) {
  StaticPartitionConfig cfg;
  cfg.user = sttram_segment(user_bytes, user_assoc, user_r, policy);
  cfg.kernel = sttram_segment(kernel_bytes, kernel_assoc, kernel_r, policy);
  return cfg;
}

}  // namespace mobcache
