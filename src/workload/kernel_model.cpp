#include "workload/kernel_model.hpp"

#include <algorithm>

namespace mobcache {
namespace {

/// Per-service handler code span (distinct text lines walked per
/// invocation) and its jitter. Long paths are what make kernel ifetches
/// L1I-hostile.
struct TextShape {
  std::uint32_t mean_lines;
  std::uint32_t jitter;
};

TextShape text_shape(KernelService s) {
  switch (s) {
    case KernelService::FileRead: return {60, 16};
    case KernelService::FileWrite: return {64, 16};
    case KernelService::NetRx: return {72, 20};
    case KernelService::NetTx: return {68, 20};
    case KernelService::BinderIpc: return {90, 24};
    case KernelService::SchedTick: return {28, 8};
    case KernelService::PageFault: return {40, 12};
    case KernelService::InputEvent: return {24, 8};
    case KernelService::AudioDma: return {30, 8};
    case KernelService::FrameFlip: return {52, 16};
  }
  return {32, 8};
}

constexpr std::uint64_t kHotTextLines = 256;  ///< shared entry/exit code

}  // namespace

KernelModel::KernelModel()
    : hot_text_(kHotTextLines, 0.9),
      slab_sampler_(layout_.slab_bytes / kLineSize, 0.8) {}

void KernelModel::data(Addr addr, bool write, std::uint16_t thread,
                       std::vector<Access>& out) const {
  Access a;
  a.addr = addr;
  a.type = write ? AccessType::Write : AccessType::Read;
  a.mode = Mode::Kernel;
  a.thread = thread;
  out.push_back(a);
}

void KernelModel::emit_text_walk(KernelService s, std::uint32_t lines,
                                 std::vector<Access>& out, Rng& rng,
                                 std::uint16_t thread) {
  // Each service owns a slice of kernel text; invocations start at a small
  // jittered offset into it, so successive calls re-touch mostly the same
  // lines (L2-friendly) while spanning far more than an L1I set's worth.
  const std::uint64_t slice =
      layout_.text_bytes / static_cast<std::uint64_t>(kKernelServiceCount);
  const Addr slice_base =
      layout_.text_base + static_cast<std::uint64_t>(s) * slice;
  const std::uint64_t slice_lines = slice / kLineSize;
  std::uint64_t cursor = rng.below(8);  // entry-point jitter

  const Addr hot_base =
      layout_.text_base + layout_.text_bytes - kHotTextLines * kLineSize;

  for (std::uint32_t i = 0; i < lines; ++i) {
    Access a;
    a.type = AccessType::InstFetch;
    a.mode = Mode::Kernel;
    a.thread = thread;
    if (rng.chance(0.25)) {
      a.addr = hot_base + hot_text_.sample(rng) * kLineSize;
    } else {
      a.addr = slice_base + (cursor % slice_lines) * kLineSize;
      ++cursor;
      if (rng.chance(0.1)) cursor += rng.below(4);  // branches skip ahead
    }
    out.push_back(a);
  }
}

void KernelModel::emit_episode(KernelService service, std::uint16_t thread,
                               Trace& out, Rng& rng) {
  std::vector<Access> buf;
  emit_episode(service, thread, buf, rng);
  out.append(std::move(buf));
}

void KernelModel::emit_episode(KernelService service, std::uint16_t thread,
                               std::vector<Access>& out, Rng& rng) {
  const TextShape ts = text_shape(service);
  const auto lines = static_cast<std::uint32_t>(
      rng.range(ts.mean_lines - ts.jitter, ts.mean_lines + ts.jitter));
  // Entry portion of the handler path.
  emit_text_walk(service, (lines * 2) / 3, out, rng, thread);

  auto slab = [&](std::size_t count, double write_frac) {
    for (std::size_t i = 0; i < count; ++i) {
      const Addr a = layout_.slab_base + slab_sampler_.sample(rng) * kLineSize;
      data(a, rng.chance(write_frac), thread, out);
    }
  };
  auto stream = [&](Addr base, std::uint64_t region_bytes,
                    std::uint64_t& cursor, std::uint64_t count, bool write) {
    const std::uint64_t region_lines = region_bytes / kLineSize;
    for (std::uint64_t i = 0; i < count; ++i) {
      data(base + (cursor % region_lines) * kLineSize, write, thread, out);
      ++cursor;
    }
  };

  switch (service) {
    case KernelService::FileRead:
      slab(6, 0.1);  // dentry/inode/file structs
      stream(layout_.page_cache_base, layout_.page_cache_bytes,
             page_cache_cursor_, rng.range(32, 128), /*write=*/false);
      break;
    case KernelService::FileWrite:
      slab(6, 0.3);
      stream(layout_.page_cache_base, layout_.page_cache_bytes,
             page_cache_cursor_, rng.range(32, 128), /*write=*/true);
      break;
    case KernelService::NetRx:
      slab(8, 0.5);  // skb allocation
      stream(layout_.net_base, layout_.net_bytes, net_cursor_,
             rng.range(16, 64), /*write=*/true);  // DMA'd payload copied in
      break;
    case KernelService::NetTx:
      slab(8, 0.4);
      stream(layout_.net_base, layout_.net_bytes, net_cursor_,
             rng.range(16, 64), /*write=*/false);
      break;
    case KernelService::BinderIpc:
      slab(8, 0.3);  // task/thread lookups on both ends
      stream(layout_.binder_base, layout_.binder_bytes, binder_cursor_,
             rng.range(16, 48), /*write=*/true);  // transaction buffer copy
      break;
    case KernelService::SchedTick:
      for (std::uint64_t i = 0, n = rng.range(8, 16); i < n; ++i) {
        const std::uint64_t runq_lines = layout_.runq_bytes / kLineSize;
        data(layout_.runq_base + rng.below(runq_lines) * kLineSize,
             rng.chance(0.4), thread, out);
      }
      slab(4, 0.3);  // task-struct vruntime updates
      break;
    case KernelService::PageFault: {
      // Page-table walk then zeroing of the fresh 4 KB page (64 lines).
      const std::uint64_t pt_lines = layout_.pgtable_bytes / kLineSize;
      for (int level = 0; level < 4; ++level)
        data(layout_.pgtable_base + rng.below(pt_lines) * kLineSize,
             level == 3, thread, out);
      const Addr anon_base =
          layout_.page_cache_base + layout_.page_cache_bytes / 2;
      const std::uint64_t pool_lines =
          layout_.page_cache_bytes / 2 / kLineSize;
      const std::uint64_t page_start =
          (fault_cursor_ * 64) % (pool_lines - 64);
      ++fault_cursor_;
      for (std::uint64_t i = 0; i < 64; ++i)
        data(anon_base + (page_start + i) * kLineSize, true, thread, out);
      break;
    }
    case KernelService::InputEvent:
      slab(4, 0.5);
      for (int i = 0; i < 2; ++i) {
        const std::uint64_t runq_lines = layout_.runq_bytes / kLineSize;
        data(layout_.runq_base + rng.below(runq_lines) * kLineSize, true,
             thread, out);
      }
      break;
    case KernelService::AudioDma:
      stream(layout_.gfx_base, layout_.gfx_bytes, gfx_cursor_,
             rng.range(24, 40), /*write=*/true);
      break;
    case KernelService::FrameFlip:
      stream(layout_.gfx_base, layout_.gfx_bytes, gfx_cursor_,
             rng.range(64, 192), /*write=*/true);
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t runq_lines = layout_.runq_bytes / kLineSize;
        data(layout_.runq_base + rng.below(runq_lines) * kLineSize, false,
             thread, out);
      }
      break;
  }

  // Exit path back to user mode.
  emit_text_walk(service, lines - (lines * 2) / 3, out, rng, thread);
}

double KernelModel::mean_episode_accesses(KernelService s) {
  const TextShape ts = text_shape(s);
  double datamean = 0.0;
  switch (s) {
    case KernelService::FileRead: datamean = 6 + 80; break;
    case KernelService::FileWrite: datamean = 6 + 80; break;
    case KernelService::NetRx: datamean = 8 + 40; break;
    case KernelService::NetTx: datamean = 8 + 40; break;
    case KernelService::BinderIpc: datamean = 8 + 32; break;
    case KernelService::SchedTick: datamean = 12 + 4; break;
    case KernelService::PageFault: datamean = 4 + 64; break;
    case KernelService::InputEvent: datamean = 6; break;
    case KernelService::AudioDma: datamean = 32; break;
    case KernelService::FrameFlip: datamean = 128 + 4; break;
  }
  return datamean + ts.mean_lines;
}

}  // namespace mobcache
