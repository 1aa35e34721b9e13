#pragma once
/// \file kernel_model.hpp
/// Synthetic OS-kernel service model.
///
/// Replaces the Android/Linux kernel activity a gem5 full-system run would
/// produce. Each KernelService emits one "episode": the instruction-fetch
/// walk over the (long, poorly L1-cached) handler path plus the data
/// references the service performs on kernel structures. Address regions,
/// footprints and burst shapes are chosen to reproduce the properties the
/// paper exploits:
///   * kernel episodes touch many distinct lines per invocation → they miss
///     L1 often and contribute >40% of L2 accesses in interactive apps;
///   * consecutive invocations reuse the same handler text and hot
///     structures → a modest dedicated kernel segment captures them;
///   * kernel blocks are rewritten/retired quickly → short lifetimes, which
///     is what makes short-retention STT-RAM viable for the kernel segment.

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace mobcache {

/// Kernel service categories modeled (an abstraction of the syscalls/IRQ
/// handlers interactive Android apps exercise most).
enum class KernelService : std::uint8_t {
  FileRead,     ///< read(2): VFS + page-cache streaming
  FileWrite,    ///< write(2): VFS + page-cache dirtying
  NetRx,        ///< socket receive: skb + buffer streaming
  NetTx,        ///< socket send
  BinderIpc,    ///< Android binder transaction (UI ↔ services)
  SchedTick,    ///< timer interrupt + scheduler bookkeeping
  PageFault,    ///< anonymous page fault incl. page zeroing
  InputEvent,   ///< touchscreen/input IRQ delivery
  AudioDma,     ///< audio buffer period interrupt
  FrameFlip,    ///< display vsync / compositor buffer flip
};

inline constexpr int kKernelServiceCount = 10;

constexpr std::string_view to_string(KernelService s) {
  switch (s) {
    case KernelService::FileRead: return "file-read";
    case KernelService::FileWrite: return "file-write";
    case KernelService::NetRx: return "net-rx";
    case KernelService::NetTx: return "net-tx";
    case KernelService::BinderIpc: return "binder";
    case KernelService::SchedTick: return "sched-tick";
    case KernelService::PageFault: return "page-fault";
    case KernelService::InputEvent: return "input";
    case KernelService::AudioDma: return "audio";
    case KernelService::FrameFlip: return "frame-flip";
  }
  return "?";
}

/// Layout of the simulated kernel address space (all above
/// kKernelSpaceBase; sizes are line-granular working areas, not claims
/// about a real kernel image).
struct KernelLayout {
  Addr text_base = kKernelSpaceBase + 0x0000'0000;
  std::uint64_t text_bytes = 6ull << 20;  ///< handler code, split per service
  Addr page_cache_base = kKernelSpaceBase + 0x1000'0000;
  std::uint64_t page_cache_bytes = 64ull << 20;
  Addr slab_base = kKernelSpaceBase + 0x2000'0000;
  std::uint64_t slab_bytes = 4ull << 20;  ///< task structs, inodes, dentries
  Addr net_base = kKernelSpaceBase + 0x3000'0000;
  std::uint64_t net_bytes = 8ull << 20;   ///< skbs + socket buffers
  Addr binder_base = kKernelSpaceBase + 0x4000'0000;
  std::uint64_t binder_bytes = 4ull << 20;
  Addr pgtable_base = kKernelSpaceBase + 0x5000'0000;
  std::uint64_t pgtable_bytes = 8ull << 20;
  Addr runq_base = kKernelSpaceBase + 0x6000'0000;
  std::uint64_t runq_bytes = 256ull << 10;  ///< per-cpu runqueues, timer wheel
  Addr gfx_base = kKernelSpaceBase + 0x7000'0000;
  std::uint64_t gfx_bytes = 16ull << 20;  ///< framebuffer/ion buffers
};

/// Stateful kernel activity generator shared by all apps in a scenario.
/// Construction is cheap: the two Zipf samplers view process-wide shared
/// tables (common/rng.hpp), and all randomness comes from the caller's Rng.
class KernelModel {
 public:
  KernelModel();

  /// Appends one full episode of `service` to `out` (mode=Kernel). The
  /// vector overload is the primary API — generators accumulate records in
  /// a flat buffer and bulk-transfer it via Trace::append once, instead of
  /// paying a push per record.
  void emit_episode(KernelService service, std::uint16_t thread,
                    std::vector<Access>& out, Rng& rng);
  /// Convenience overload for callers holding a Trace (tests, ad-hoc use).
  void emit_episode(KernelService service, std::uint16_t thread, Trace& out,
                    Rng& rng);

  const KernelLayout& layout() const { return layout_; }

  /// Rough episode length in accesses (mean), used by the generator to
  /// budget kernel share. Exposed for tests.
  static double mean_episode_accesses(KernelService s);

 private:
  /// Emits the handler-path instruction walk: `lines` distinct text lines
  /// starting at a per-(service,invocation) offset, with hot shared prologue
  /// lines mixed in.
  void emit_text_walk(KernelService s, std::uint32_t lines,
                      std::vector<Access>& out, Rng& rng,
                      std::uint16_t thread);

  void data(Addr addr, bool write, std::uint16_t thread,
            std::vector<Access>& out) const;

  KernelLayout layout_;
  ZipfSampler hot_text_;      ///< shared hot entry/exit path lines
  ZipfSampler slab_sampler_;  ///< skewed task/inode reuse
  std::uint64_t page_cache_cursor_ = 0;  ///< streaming file position (lines)
  std::uint64_t net_cursor_ = 0;
  std::uint64_t binder_cursor_ = 0;
  std::uint64_t gfx_cursor_ = 0;
  std::uint64_t fault_cursor_ = 0;
};

}  // namespace mobcache
