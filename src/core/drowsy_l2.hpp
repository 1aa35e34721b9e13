#pragma once
/// \file drowsy_l2.hpp
/// Drowsy-SRAM shared L2 (additional baseline, beyond the paper).
///
/// Drowsy caches (Flautner et al.) are the classic circuit-level answer to
/// SRAM leakage: lines not recently used drop to a state-preserving
/// low-voltage mode that leaks ~4× less but costs a wake-up penalty on the
/// next access. Comparing against it answers the obvious reviewer
/// question — "why redesign the cache when drowsy mode already cuts
/// leakage?" — with numbers: drowsy saves a large share of leakage but
/// keeps the full 2 MB array and its dynamic energy, while the paper's
/// partition+shrink+STT designs go much further.
///
/// Policy modeled: the "simple" global policy — every `kWindow` cycles all
/// lines are put drowsy; an access to a drowsy line pays `kWakeLatency`
/// and the line stays awake until the next window boundary. Leakage within
/// a window is integrated as: woken lines awake for half the window on
/// average, everything else drowsy.

#include <array>

#include "core/l2_segment.hpp"

namespace mobcache {

/// The array is one SRAM segment; leakage is integrated here per window,
/// and the bank model is the drowsy baseline's own.
class DrowsyL2 final : public OneSegmentL2 {
 public:
  /// Global drowse period.
  static constexpr Cycle kWindow = 4000;
  /// Extra cycles to access a drowsy line.
  static constexpr Cycle kWakeLatency = 2;
  /// Leakage of a drowsy line vs an awake one.
  static constexpr double kDrowsyLeakFactor = 0.25;

  /// `cache`: the geometry (paper baseline: 2 MB 16-way).
  explicit DrowsyL2(const CacheConfig& cache);

  L2Result access(Addr line, AccessType type, Mode mode, Cycle now) override;
  void writeback(Addr line, Mode owner, Cycle now) override;
  void prefetch(Addr line, Mode mode, Cycle now) override;
  void finalize(Cycle end) override;
  std::string describe() const override;
  void fill_sample(EpochSample& s) const override {
    s.enabled_bytes = static_cast<double>(seg_.capacity_bytes());
    s.drowsy_awake_lines = awake_count_;
  }

  /// Lines woken during the current window (tests/reports).
  std::uint64_t awake_lines() const { return awake_count_; }
  std::uint64_t wakeups() const { return wakeups_; }
  /// Time-averaged effective leakage fraction vs always-awake SRAM.
  double avg_leak_fraction() const;

 private:
  /// Closes any windows fully elapsed before `now`, integrating their
  /// leakage, and resets the awake set at each boundary.
  void roll_windows(Cycle now);
  /// Charges `span` cycles of the current window, ending at `at`, at its
  /// effective leakage fraction and reports the window's transitions.
  void close_window(Cycle span, Cycle at);
  /// True (and records the wake) when the line's way was drowsy.
  bool wake(std::uint32_t set, std::uint32_t way);

  std::vector<bool> awake_;
  std::uint64_t awake_count_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t window_wakeups_ = 0;  ///< wakes within the current window
  Cycle window_start_ = 0;
  double leak_fraction_integral_ = 0.0;  ///< Σ window · effective fraction
  std::array<Cycle, 4> bank_busy_until_{};
  Cycle final_cycle_ = 0;
  bool finalized_ = false;
};

}  // namespace mobcache
