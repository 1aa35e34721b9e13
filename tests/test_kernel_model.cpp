#include "workload/kernel_model.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace mobcache {
namespace {

std::vector<KernelService> all_services() {
  std::vector<KernelService> v;
  for (int i = 0; i < kKernelServiceCount; ++i)
    v.push_back(static_cast<KernelService>(i));
  return v;
}

TEST(KernelModel, EpisodesAreKernelModeAndKernelAddressed) {
  KernelModel km;
  Rng rng(2);
  Trace t;
  for (KernelService s : all_services()) km.emit_episode(s, 0, t, rng);
  ASSERT_GT(t.size(), 0u);
  for (const Access& a : t.accesses()) {
    EXPECT_EQ(a.mode, Mode::Kernel);
    EXPECT_TRUE(is_kernel_addr(a.addr));
  }
  EXPECT_TRUE(t.modes_consistent_with_addresses());
}

TEST(KernelModel, EpisodeLengthNearDocumentedMean) {
  KernelModel km;
  Rng rng(3);
  for (KernelService s : all_services()) {
    Trace t;
    const int reps = 50;
    for (int i = 0; i < reps; ++i) km.emit_episode(s, 0, t, rng);
    const double mean = static_cast<double>(t.size()) / reps;
    const double expect = KernelModel::mean_episode_accesses(s);
    EXPECT_NEAR(mean, expect, expect * 0.35)
        << "episode " << to_string(s) << " length off its documented mean";
  }
}

TEST(KernelModel, FileReadTouchesPageCache) {
  KernelModel km;
  Rng rng(5);
  Trace t;
  km.emit_episode(KernelService::FileRead, 0, t, rng);
  const KernelLayout& lay = km.layout();
  bool touched_pc = false;
  for (const Access& a : t.accesses()) {
    if (!a.is_ifetch() && a.addr >= lay.page_cache_base &&
        a.addr < lay.page_cache_base + lay.page_cache_bytes) {
      touched_pc = true;
      EXPECT_EQ(a.type, AccessType::Read);
    }
  }
  EXPECT_TRUE(touched_pc);
}

TEST(KernelModel, PageFaultZeroesWholePage) {
  KernelModel km;
  Rng rng(7);
  Trace t;
  km.emit_episode(KernelService::PageFault, 0, t, rng);
  // 64 consecutive line writes = one 4 KB page zeroed.
  int consecutive_writes = 0;
  int max_run = 0;
  for (const Access& a : t.accesses()) {
    if (a.is_write() && !a.is_ifetch()) {
      ++consecutive_writes;
      max_run = std::max(max_run, consecutive_writes);
    } else {
      consecutive_writes = 0;
    }
  }
  EXPECT_GE(max_run, 64);
}

TEST(KernelModel, SchedTickIsShortestService) {
  for (KernelService s : all_services()) {
    if (s == KernelService::SchedTick || s == KernelService::InputEvent)
      continue;
    EXPECT_LT(KernelModel::mean_episode_accesses(KernelService::InputEvent),
              KernelModel::mean_episode_accesses(s));
  }
}

TEST(KernelModel, TextWalkSpansManyDistinctLines) {
  // The L1I-hostility premise: one episode touches far more distinct text
  // lines than a hot loop would.
  KernelModel km;
  Rng rng(11);
  Trace t;
  km.emit_episode(KernelService::BinderIpc, 0, t, rng);
  std::unordered_set<Addr> text_lines;
  for (const Access& a : t.accesses()) {
    if (a.is_ifetch()) text_lines.insert(line_addr(a.addr));
  }
  EXPECT_GT(text_lines.size(), 40u);
}

TEST(KernelModel, StreamingServicesAdvanceCursor) {
  // Two FileRead episodes must touch mostly different page-cache lines
  // (streaming), unlike the slab structures which repeat.
  KernelModel km;
  Rng rng(13);
  Trace t1;
  km.emit_episode(KernelService::FileRead, 0, t1, rng);
  Trace t2;
  km.emit_episode(KernelService::FileRead, 0, t2, rng);

  const KernelLayout& lay = km.layout();
  auto pc_lines = [&](const Trace& t) {
    std::unordered_set<Addr> s;
    for (const Access& a : t.accesses()) {
      if (!a.is_ifetch() && a.addr >= lay.page_cache_base &&
          a.addr < lay.page_cache_base + lay.page_cache_bytes)
        s.insert(line_addr(a.addr));
    }
    return s;
  };
  const auto l1 = pc_lines(t1);
  const auto l2 = pc_lines(t2);
  std::size_t overlap = 0;
  for (Addr a : l1) overlap += l2.count(a);
  EXPECT_EQ(overlap, 0u) << "page-cache streaming must not rewind";
}

TEST(KernelModel, ThreadIdPropagated) {
  KernelModel km;
  Rng rng(17);
  Trace t;
  km.emit_episode(KernelService::NetRx, 7, t, rng);
  for (const Access& a : t.accesses()) EXPECT_EQ(a.thread, 7);
}

TEST(KernelModel, DeterministicGivenSameRngSeed) {
  KernelModel km1;
  KernelModel km2;
  Rng r1(42);
  Rng r2(42);
  Trace t1;
  Trace t2;
  km1.emit_episode(KernelService::FrameFlip, 0, t1, r1);
  km2.emit_episode(KernelService::FrameFlip, 0, t2, r2);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].addr, t2[i].addr);
    EXPECT_EQ(t1[i].type, t2[i].type);
  }
}

}  // namespace
}  // namespace mobcache
