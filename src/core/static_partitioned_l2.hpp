#pragma once
/// \file static_partitioned_l2.hpp
/// The paper's first proposal: split the L2 into two independent segments,
/// one reachable only by user-mode references, one only by kernel-mode
/// references. Interference disappears, so the combined capacity can shrink
/// far below the shared baseline at similar miss rate. Each segment has its
/// own technology binding, which is exactly what the multi-retention
/// STT-RAM variant (SP-MRSTT) exploits: a short-retention kernel segment
/// and a longer-retention user segment.

#include <array>

#include "core/l2_segment.hpp"

namespace mobcache {

/// Per-segment specification.
struct SegmentSpec {
  std::uint64_t size_bytes = 256ull << 10;
  std::uint32_t assoc = 8;
  ReplKind repl = ReplKind::Lru;
  TechKind tech = TechKind::Sram;
  RetentionClass retention = RetentionClass::Hi;
  RefreshPolicy refresh = RefreshPolicy::ScrubDirty;
  Cycle refresh_check_interval = 2'000'000;
  BypassPredictorConfig bypass;  ///< stream write-bypass (E18)
  std::uint64_t wear_rotate_writes = 0;  ///< set-rotation wear leveling (E20)
  FaultConfig fault;  ///< per-segment fault injection (disabled by default)
};

struct StaticPartitionConfig {
  SegmentSpec user;
  SegmentSpec kernel;
};

class StaticPartitionedL2 final : public L2Interface {
 public:
  explicit StaticPartitionedL2(const StaticPartitionConfig& cfg);

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override {
    return seg(mode).access(line, type, mode, now, telemetry_);
  }
  void writeback(Addr line, Mode owner, Cycle now) override {
    seg(owner).writeback(line, owner, now, telemetry_);
  }
  void prefetch(Addr line, Mode mode, Cycle now) override {
    seg(mode).prefetch(line, mode, now, telemetry_);
  }
  void finalize(Cycle end) override {
    for (L2Segment& s : segments_) s.finalize(end, telemetry_);
  }
  const EnergyBreakdown& energy() const override;
  CacheStats aggregate_stats() const override;
  std::uint64_t capacity_bytes() const override {
    return segments_[0].capacity_bytes() + segments_[1].capacity_bytes();
  }
  std::string describe() const override;
  void add_eviction_observer(
      std::function<void(const EvictionEvent&)> obs) override;
  double avg_enabled_bytes() const override {
    return segments_[0].avg_enabled_bytes() +
           segments_[1].avg_enabled_bytes();
  }
  std::uint32_t quarantined_ways() const override {
    return segments_[0].quarantined_ways() + segments_[1].quarantined_ways();
  }

  /// Per-segment introspection for the evaluation (E2, E5, E6).
  const L2Segment& segment(Mode m) const {
    return segments_[static_cast<int>(m)];
  }

 private:
  L2Segment& seg(Mode m) { return segments_[static_cast<int>(m)]; }

  std::array<L2Segment, kModeCount> segments_;
  mutable EnergyBreakdown merged_;
};

/// Convenience builders used by the scheme factory and benches.
SegmentSpec sram_segment(std::uint64_t size_bytes, std::uint32_t assoc);
SegmentSpec sttram_segment(std::uint64_t size_bytes, std::uint32_t assoc,
                           RetentionClass r,
                           RefreshPolicy p = RefreshPolicy::ScrubDirty);

}  // namespace mobcache
