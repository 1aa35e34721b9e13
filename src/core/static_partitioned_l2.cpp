#include "core/static_partitioned_l2.hpp"

namespace mobcache {

namespace {

L2SegmentConfig named(L2SegmentConfig c, const char* name) {
  c.cache.name = name;
  return c;
}

}  // namespace

StaticPartitionedL2::StaticPartitionedL2(const StaticPartitionConfig& cfg)
    : segments_{{L2Segment(named(cfg.user, "L2.user")),
                 L2Segment(named(cfg.kernel, "L2.kernel"))}} {}

const EnergyBreakdown& StaticPartitionedL2::energy() const {
  merged_ = EnergyBreakdown{};
  for (const L2Segment& s : segments_) merged_ += s.energy();
  return merged_;
}

CacheStats StaticPartitionedL2::aggregate_stats() const {
  CacheStats out;
  for (const L2Segment& s : segments_) out += s.array().stats();
  return out;
}

std::string StaticPartitionedL2::describe() const {
  return "static-partitioned [user: " + segments_[0].describe("shared") +
         "] [kernel: " + segments_[1].describe("shared") + "]";
}

void StaticPartitionedL2::add_eviction_observer(
    std::function<void(const EvictionEvent&)> obs) {
  // Both segments share the observer; events carry the owner mode.
  segments_[0].array().add_eviction_observer(obs);
  segments_[1].array().add_eviction_observer(std::move(obs));
}

L2SegmentConfig sram_segment(std::uint64_t size_bytes, std::uint32_t assoc) {
  L2SegmentConfig s;
  s.cache.size_bytes = size_bytes;
  s.cache.assoc = assoc;
  return s;
}

L2SegmentConfig sttram_segment(std::uint64_t size_bytes, std::uint32_t assoc,
                               RetentionClass r, RefreshPolicy p) {
  L2SegmentConfig s = sram_segment(size_bytes, assoc);
  s.tech = TechKind::SttRam;
  s.retention = r;
  s.refresh = p;
  return s;
}

}  // namespace mobcache
