#pragma once
/// \file shared_l2.hpp
/// Conventional mode-oblivious L2: the paper's baseline (SRAM, any size) and
/// the unpartitioned-STT-RAM comparison point. One L2Segment under its
/// healthy ways, priced at its own technology.

#include "core/l2_segment.hpp"

namespace mobcache {

using SharedL2Config = L2SegmentConfig;

class SharedL2 final : public OneSegmentL2 {
 public:
  explicit SharedL2(const SharedL2Config& cfg) : OneSegmentL2(cfg) {}

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override {
    return seg_.access(line, type, mode, now, telemetry_);
  }
  void writeback(Addr line, Mode owner, Cycle now) override {
    seg_.writeback(line, owner, now, telemetry_);
  }
  void prefetch(Addr line, Mode mode, Cycle now) override {
    seg_.prefetch(line, mode, now, telemetry_);
  }
  void finalize(Cycle end) override { seg_.finalize(end, telemetry_); }
  std::string describe() const override { return seg_.describe("shared"); }

  const TechParams& tech() const { return seg_.tech(); }
  /// Fills skipped by the stream write-bypass predictor.
  std::uint64_t bypassed_fills() const { return seg_.bypassed_fills(); }
  /// Wear-leveling rotations performed so far.
  std::uint64_t rotations() const { return seg_.rotations(); }
  /// Ways currently in service (excludes quarantined ways).
  WayMask active_mask() const { return seg_.active_mask(); }
};

}  // namespace mobcache
