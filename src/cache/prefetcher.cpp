#include "cache/prefetcher.hpp"

namespace mobcache {

StridePrefetcher::StridePrefetcher(bool enabled) : enabled_(enabled) {
  for (auto& t : table_) t.resize(kTableEntries);
}

StridePrefetcher::Entry& StridePrefetcher::lookup(Addr region, Mode mode) {
  auto& table = table_[static_cast<int>(mode)];
  Entry* victim = &table[0];
  for (Entry& e : table) {
    if (e.valid && e.region == region) return e;
    if (e.lru < victim->lru) victim = &e;
  }
  *victim = Entry{};
  victim->region = region;
  return *victim;
}

std::vector<Addr> StridePrefetcher::observe_miss(Addr line, Mode mode) {
  std::vector<Addr> out;
  if (!enabled_) return out;

  const Addr region = line / kRegionBytes;
  Entry& e = lookup(region, mode);
  e.lru = ++tick_;

  if (e.valid) {
    const auto delta = static_cast<std::int64_t>(line) -
                       static_cast<std::int64_t>(e.last_line);
    if (delta != 0 && delta == e.stride) {
      if (e.confidence < kTrainHits) ++e.confidence;
    } else {
      e.stride = delta;
      e.confidence = delta != 0 ? 1 : 0;
    }
  } else {
    e.valid = true;
  }
  e.last_line = line;

  if (e.confidence >= kTrainHits && e.stride != 0) {
    out.reserve(kDegree);
    Addr next = line;
    for (std::uint32_t d = 0; d < kDegree; ++d) {
      next = static_cast<Addr>(static_cast<std::int64_t>(next) + e.stride);
      // Never cross into the other half of the address space: a user
      // stream must not fabricate kernel prefetches (and vice versa).
      if (is_kernel_addr(next) != (mode == Mode::Kernel)) break;
      out.push_back(line_addr(next));
    }
    issued_ += out.size();
  }
  return out;
}

}  // namespace mobcache
