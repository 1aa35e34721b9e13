#pragma once
/// \file bank_model.hpp
/// Banked write-buffer timing model for the L2 arrays.
///
/// Long STT-RAM writes are the designs' main timing liability. The earlier
/// approximation (a read waits out the whole write backlog of its bank) is
/// pessimistic: real controllers give reads priority — a read waits at most
/// for the write currently committed to the array, while further writes sit
/// in the bank's write queue. Writes themselves are posted and only stall
/// the requester when that queue is full.
///
/// Per bank the model keeps one quantity, `next_free` (when the last queued
/// write completes); queue occupancy and the in-flight write's remaining
/// time are derived from it and the write latency.

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mobcache {

class BankModel {
 public:
  /// `banks` must be a power of two; `queue_depth` is writes per bank.
  explicit BankModel(std::uint32_t banks = 4, std::uint32_t queue_depth = 4);

  std::uint32_t bank_of(Addr line) const {
    return static_cast<std::uint32_t>((line / kLineSize) &
                                      (banks_.size() - 1));
  }

  /// Stall a read arriving at `now` observes: the remainder of the write
  /// currently occupying the array (at most one `write_latency`).
  Cycle read_stall(Addr line, Cycle now, Cycle write_latency) const {
    const Bank& b = banks_[bank_of(line)];
    if (b.next_free <= now || write_latency == 0) return 0;
    const Cycle pending = b.next_free - now;
    // The in-flight write's remaining time: pending modulo one write slot
    // (mapped to (0, write_latency]).
    return (pending - 1) % write_latency + 1;
  }

  /// Enqueues a write. Returns the requester-visible stall: zero while the
  /// queue has room, otherwise the wait until a slot frees.
  Cycle write_enqueue(Addr line, Cycle now, Cycle write_latency) {
    Bank& b = banks_[bank_of(line)];
    if (b.next_free <= now) {
      b.next_free = now + write_latency;
      return 0;
    }
    const Cycle pending = b.next_free - now;
    const Cycle capacity = static_cast<Cycle>(max_queue_) * write_latency;
    Cycle stall = 0;
    if (pending >= capacity) {
      // Queue full: the requester waits until one slot drains.
      stall = pending - (capacity - write_latency);
    }
    b.next_free += write_latency;
    return stall;
  }

  /// Writes still queued in the bank at `now` (tests/telemetry).
  std::uint32_t queue_depth(Addr line, Cycle now, Cycle write_latency) const;

 private:
  struct Bank {
    Cycle next_free = 0;
  };

  std::uint32_t max_queue_;
  std::vector<Bank> banks_;
};

}  // namespace mobcache
