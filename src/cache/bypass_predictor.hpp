#pragma once
/// \file bypass_predictor.hpp
/// Stream write-bypass predictor for STT-RAM caches (extension).
///
/// STT-RAM turns every fill into an expensive write. Streaming data (page
/// cache, network buffers, frame buffers) is fetched once and never
/// re-referenced, so installing it buys nothing and costs a full write —
/// the classic fix is to predict dead-on-arrival fills and bypass them
/// (serve the requester straight from DRAM). The predictor is a tagless
/// table of 2-bit saturating counters indexed by a hash of the 4 KB region:
/// evictions of never-re-referenced blocks train toward "bypass", re-hits
/// train toward "install".

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mobcache {

class StreamBypassPredictor {
 public:
  /// A disabled predictor never bypasses.
  explicit StreamBypassPredictor(bool enabled);

  /// True when a fill for this line should be bypassed (pure query).
  bool should_bypass(Addr line) const;

  /// Stateful decision used by the cache: like should_bypass, but every
  /// `kProbePeriod`-th would-be bypass installs anyway. Without probing, a
  /// small segment that evicts blocks before their re-reference trains
  /// everything toward bypass and can never recover (death spiral); probe
  /// installs give regions a chance to prove reuse.
  bool decide_bypass(Addr line);

  /// A resident block from this region was re-referenced: install-worthy.
  void train_reuse(Addr line);

  /// A block from this region left the cache; `was_reused` is whether it
  /// was touched again after its fill.
  void train_eviction(Addr line, bool was_reused);

  bool enabled() const { return enabled_; }
  std::uint64_t bypasses() const { return bypasses_; }
  /// Called by the owner when it acts on decide_bypass().
  void count_bypass() { ++bypasses_; }

  static constexpr std::uint64_t kProbePeriod = 8;

 private:
  static constexpr std::uint64_t kRegionBytes = 4096;
  static constexpr std::uint8_t kMax = 3;
  static constexpr std::size_t kTableSize = 256;  ///< counters (power of two)
  /// Counter value below which fills bypass (0..3; 1 = bypass only for
  /// strongly-dead regions).
  static constexpr std::uint8_t kBypassBelow = 1;

  std::size_t index(Addr line) const {
    const std::uint64_t region = line / kRegionBytes;
    // Mix high bits so user and kernel regions spread across the table.
    const std::uint64_t h = region ^ (region >> 16) ^ (region >> 32);
    return static_cast<std::size_t>(h) & (table_.size() - 1);
  }

  bool enabled_;
  std::vector<std::uint8_t> table_;  ///< 2-bit counters
  std::uint64_t bypasses_ = 0;
  std::uint64_t probe_tick_ = 0;
};

}  // namespace mobcache
