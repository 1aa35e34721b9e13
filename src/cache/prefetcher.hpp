#pragma once
/// \file prefetcher.hpp
/// L2 stream/stride prefetch engine (extension beyond the paper).
///
/// Mobile SoCs of the paper's era shipped simple L2 stream prefetchers.
/// Prefetching interacts with partitioning in a non-obvious way: prefetched
/// kernel streams (page cache, network buffers) pollute a shared L2 even
/// harder, while in the partitioned designs the pollution stays inside the
/// owning segment. Experiment E12 quantifies this.
///
/// The engine is a classic region-based stride detector: per 4 KB region it
/// remembers the last miss line and the detected stride; after `kTrainHits`
/// consecutive confirmations it emits `kDegree` prefetch candidates.

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mobcache {

class StridePrefetcher {
 public:
  /// A disabled prefetcher observes nothing and never issues.
  explicit StridePrefetcher(bool enabled);

  /// Observes a demand L2 miss; returns the line addresses to prefetch
  /// (empty while training or when disabled).
  std::vector<Addr> observe_miss(Addr line, Mode mode);

  std::uint64_t issued() const { return issued_; }

 private:
  static constexpr std::uint64_t kRegionBytes = 4096;
  static constexpr std::uint32_t kTrainHits = 2;
  /// Lines fetched ahead once trained.
  static constexpr std::uint32_t kDegree = 2;
  /// Tracked regions per mode.
  static constexpr std::size_t kTableEntries = 16;

  struct Entry {
    Addr region = 0;
    Addr last_line = 0;
    std::int64_t stride = 0;  ///< bytes between successive misses
    std::uint32_t confidence = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  Entry& lookup(Addr region, Mode mode);

  bool enabled_;
  std::vector<Entry> table_[kModeCount];
  std::uint64_t tick_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace mobcache
