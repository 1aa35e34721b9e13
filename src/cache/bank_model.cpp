#include "cache/bank_model.hpp"

#include <algorithm>

namespace mobcache {

BankModel::BankModel(std::uint32_t banks, std::uint32_t queue_depth)
    : max_queue_(std::max(1u, queue_depth)),
      banks_(std::max(1u, banks)) {}

std::uint32_t BankModel::queue_depth(Addr line, Cycle now,
                                     Cycle write_latency) const {
  const Bank& b = banks_[bank_of(line)];
  if (b.next_free <= now || write_latency == 0) return 0;
  const Cycle pending = b.next_free - now;
  return static_cast<std::uint32_t>((pending + write_latency - 1) /
                                    write_latency);
}

}  // namespace mobcache
