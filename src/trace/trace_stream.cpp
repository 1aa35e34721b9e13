#include "trace/trace_stream.hpp"

#include <algorithm>
#include <atomic>

namespace mobcache {

namespace {

std::atomic<std::uint64_t> g_chunks_generated{0};
std::atomic<std::uint64_t> g_chunk_reuse_hits{0};
std::atomic<std::uint64_t> g_high_water_chunk_bytes{0};

void raise_high_water(std::uint64_t bytes) {
  std::uint64_t cur = g_high_water_chunk_bytes.load(std::memory_order_relaxed);
  while (bytes > cur &&
         !g_high_water_chunk_bytes.compare_exchange_weak(
             cur, bytes, std::memory_order_relaxed)) {
  }
}

}  // namespace

StreamCounters stream_counters() {
  StreamCounters c;
  c.chunks_generated = g_chunks_generated.load(std::memory_order_relaxed);
  c.chunk_reuse_hits = g_chunk_reuse_hits.load(std::memory_order_relaxed);
  c.high_water_chunk_bytes =
      g_high_water_chunk_bytes.load(std::memory_order_relaxed);
  return c;
}

void reset_stream_counters() {
  g_chunks_generated.store(0, std::memory_order_relaxed);
  g_chunk_reuse_hits.store(0, std::memory_order_relaxed);
  g_high_water_chunk_bytes.store(0, std::memory_order_relaxed);
}

std::vector<Access>& ChunkBuffer::refill() {
  if (filled_once_ && buf_.capacity() != 0) {
    g_chunk_reuse_hits.fetch_add(1, std::memory_order_relaxed);
  }
  buf_.clear();
  return buf_;
}

std::span<const Access> ChunkBuffer::publish() {
  filled_once_ = true;
  g_chunks_generated.fetch_add(1, std::memory_order_relaxed);
  raise_high_water(buf_.capacity() * sizeof(Access));
  return {buf_.data(), buf_.size()};
}

std::span<const Access> MaterializedTraceStream::next_chunk() {
  const std::vector<Access>& a = trace_->accesses();
  if (pos_ >= a.size()) return {};
  const std::size_t n = std::min(kStreamChunkRecords, a.size() - pos_);
  std::span<const Access> chunk(a.data() + pos_, n);
  pos_ += n;
  g_chunks_generated.fetch_add(1, std::memory_order_relaxed);
  return chunk;
}

Trace materialize(TraceStream& stream, std::size_t expected_records) {
  Trace out(stream.name());
  // 4 Ki records of headroom cover a generator's overshoot past its target.
  if (expected_records != 0) out.reserve(expected_records + 4096);
  for (std::span<const Access> c = stream.next_chunk(); !c.empty();
       c = stream.next_chunk()) {
    out.append(c);
  }
  return out;
}

}  // namespace mobcache
