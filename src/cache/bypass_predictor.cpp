#include "cache/bypass_predictor.hpp"

namespace mobcache {

StreamBypassPredictor::StreamBypassPredictor(bool enabled)
    : enabled_(enabled),
      table_(kTableSize, 2) {}  // weakly install: new regions get cached

bool StreamBypassPredictor::should_bypass(Addr line) const {
  if (!enabled_) return false;
  return table_[index(line)] < kBypassBelow;
}

bool StreamBypassPredictor::decide_bypass(Addr line) {
  if (!should_bypass(line)) return false;
  if (++probe_tick_ % kProbePeriod == 0) return false;  // probe install
  return true;
}

void StreamBypassPredictor::train_reuse(Addr line) {
  std::uint8_t& c = table_[index(line)];
  if (c < kMax) ++c;
}

void StreamBypassPredictor::train_eviction(Addr line, bool was_reused) {
  std::uint8_t& c = table_[index(line)];
  if (was_reused) {
    if (c < kMax) ++c;
  } else if (c > 0) {
    --c;
  }
}

}  // namespace mobcache
