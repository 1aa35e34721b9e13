#pragma once
/// \file multi_retention_l2.hpp
/// Multi-retention STT-RAM support for the partitioned L2 (paper technique 2).
///
/// The separated segments behave very differently: kernel blocks are
/// short-lived (service working sets churn), user blocks persist across UI
/// phases. The right retention class per segment is the cheapest one whose
/// retention period still covers (almost) all block residencies — anything
/// longer wastes write energy, anything shorter loses blocks and re-fetches
/// them from DRAM. LifetimeRecorder gathers the residency distributions
/// (experiment E5) and RetentionAdvisor turns them into a class choice
/// (experiment E6 sweeps all choices to validate it).

#include <array>

#include "cache/set_assoc_cache.hpp"
#include "common/stats.hpp"
#include "core/static_partitioned_l2.hpp"
#include "energy/technology.hpp"

namespace mobcache {

/// Collects per-mode block-lifetime statistics from eviction events.
class LifetimeRecorder {
 public:
  /// Wire into any L2 via add_eviction_observer (the returned lambda keeps a
  /// reference to *this; the recorder must outlive the cache).
  std::function<void(const EvictionEvent&)> observer();

  void on_eviction(const EvictionEvent& e);

  /// Residency: cycles from fill to eviction.
  const Log2Histogram& residency(Mode m) const {
    return residency_[static_cast<int>(m)];
  }
  /// Liveness: cycles from fill to the block's last touch (the span the
  /// data actually needed to survive).
  const Log2Histogram& liveness(Mode m) const {
    return liveness_[static_cast<int>(m)];
  }
  /// Dead time: cycles between last touch and eviction (cache space wasted
  /// on dead blocks — large in the shared baseline).
  const Log2Histogram& dead_time(Mode m) const {
    return dead_[static_cast<int>(m)];
  }
  /// Accesses per block during residency.
  const RunningStat& reuse(Mode m) const { return reuse_[static_cast<int>(m)]; }

  std::uint64_t events(Mode m) const {
    return residency_[static_cast<int>(m)].total();
  }

  /// Adds `o`'s distributions to this recorder's, as if its evictions had
  /// been observed here (Log2Histogram / RunningStat merges).
  void merge(const LifetimeRecorder& o);

 private:
  std::array<Log2Histogram, kModeCount> residency_;
  std::array<Log2Histogram, kModeCount> liveness_;
  std::array<Log2Histogram, kModeCount> dead_;
  std::array<RunningStat, kModeCount> reuse_;
};

/// Chooses the cheapest retention class covering the observed lifetimes.
class RetentionAdvisor {
 public:
  /// A class "covers" a block when its retention period exceeds the block's
  /// liveness. Returns the cheapest class covering at least `coverage`
  /// (default 95%) of blocks; Hi when none suffices.
  static RetentionClass recommend(const Log2Histogram& liveness,
                                  double coverage = 0.95);
};

/// SP-MRSTT configuration: STT-RAM segments with independently chosen
/// retention classes (paper's pick: short-retention kernel, mid user).
StaticPartitionConfig make_mrstt_config(
    std::uint64_t user_bytes, std::uint32_t user_assoc, RetentionClass user_r,
    std::uint64_t kernel_bytes, std::uint32_t kernel_assoc,
    RetentionClass kernel_r, RefreshPolicy policy = RefreshPolicy::ScrubDirty);

}  // namespace mobcache
