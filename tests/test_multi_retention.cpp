#include "core/multi_retention_l2.hpp"

#include <gtest/gtest.h>

namespace mobcache {
namespace {

EvictionEvent event(Mode m, Cycle fill, Cycle last, Cycle evict, bool dirty,
                    std::uint32_t touches) {
  EvictionEvent e;
  e.owner = m;
  e.fill_cycle = fill;
  e.last_access = last;
  e.evict_cycle = evict;
  e.dirty = dirty;
  e.access_count = touches;
  return e;
}

TEST(LifetimeRecorder, SplitsByModeAndComputesSpans) {
  LifetimeRecorder rec;
  rec.on_eviction(event(Mode::User, 100, 900, 1000, false, 5));
  rec.on_eviction(event(Mode::Kernel, 100, 150, 200, true, 2));

  EXPECT_EQ(rec.events(Mode::User), 1u);
  EXPECT_EQ(rec.events(Mode::Kernel), 1u);
  // User: residency 900, liveness 800, dead 100 — q=1 bounds clamp to the
  // exact maxima rather than the enclosing power-of-two bucket bounds.
  EXPECT_EQ(rec.residency(Mode::User).quantile_upper_bound(1.0), 900u);
  EXPECT_EQ(rec.liveness(Mode::User).quantile_upper_bound(1.0), 800u);
  EXPECT_EQ(rec.dead_time(Mode::User).quantile_upper_bound(1.0), 100u);
  EXPECT_DOUBLE_EQ(rec.reuse(Mode::User).mean(), 5.0);
  EXPECT_DOUBLE_EQ(rec.reuse(Mode::Kernel).mean(), 2.0);
}

TEST(LifetimeRecorder, ObserverAdapterWorks) {
  LifetimeRecorder rec;
  auto obs = rec.observer();
  obs(event(Mode::Kernel, 0, 10, 20, false, 1));
  EXPECT_EQ(rec.events(Mode::Kernel), 1u);
}

TEST(LifetimeRecorder, HandlesDegenerateTimestamps) {
  LifetimeRecorder rec;
  // evict < fill (should clamp, not underflow)
  rec.on_eviction(event(Mode::User, 100, 50, 60, false, 1));
  EXPECT_EQ(rec.events(Mode::User), 1u);
  EXPECT_LE(rec.residency(Mode::User).quantile_upper_bound(1.0), 1u);
}

TEST(LifetimeRecorder, MergeEqualsRecordingBothStreams) {
  const EvictionEvent a[] = {event(Mode::User, 100, 900, 1000, false, 5),
                             event(Mode::Kernel, 100, 150, 200, true, 2)};
  const EvictionEvent b[] = {event(Mode::User, 0, 30'000, 70'000, true, 9),
                             event(Mode::Kernel, 50, 60, 4'000, false, 1),
                             event(Mode::User, 10, 20, 30, false, 3)};
  LifetimeRecorder both, first, second;
  for (const EvictionEvent& e : a) {
    both.on_eviction(e);
    first.on_eviction(e);
  }
  for (const EvictionEvent& e : b) {
    both.on_eviction(e);
    second.on_eviction(e);
  }
  first.merge(second);
  for (Mode m : {Mode::User, Mode::Kernel}) {
    EXPECT_EQ(first.residency(m).buckets(), both.residency(m).buckets());
    EXPECT_EQ(first.liveness(m).buckets(), both.liveness(m).buckets());
    EXPECT_EQ(first.dead_time(m).buckets(), both.dead_time(m).buckets());
    EXPECT_EQ(first.events(m), both.events(m));
    EXPECT_EQ(first.liveness(m).quantile_upper_bound(1.0),
              both.liveness(m).quantile_upper_bound(1.0));
    EXPECT_EQ(first.reuse(m).count(), both.reuse(m).count());
    EXPECT_DOUBLE_EQ(first.reuse(m).mean(), both.reuse(m).mean());
  }
}

TEST(RetentionAdvisor, ShortLivedBlocksGetLowRetention) {
  Log2Histogram liveness;
  // Everything lives ~1 ms ≪ 10 ms LO retention.
  for (int i = 0; i < 1000; ++i) liveness.add(1'000'000);
  EXPECT_EQ(RetentionAdvisor::recommend(liveness), RetentionClass::Lo);
}

TEST(RetentionAdvisor, MediumLivedBlocksGetMidRetention) {
  Log2Histogram liveness;
  // ~100 ms lifetimes: LO (10 ms) insufficient, MID (1 s) covers.
  for (int i = 0; i < 1000; ++i) liveness.add(100'000'000);
  EXPECT_EQ(RetentionAdvisor::recommend(liveness), RetentionClass::Mid);
}

TEST(RetentionAdvisor, LongLivedBlocksGetHighRetention) {
  Log2Histogram liveness;
  for (int i = 0; i < 1000; ++i) liveness.add(10'000'000'000ull);  // 10 s
  EXPECT_EQ(RetentionAdvisor::recommend(liveness), RetentionClass::Hi);
}

TEST(RetentionAdvisor, CoverageKnobMatters) {
  Log2Histogram liveness;
  // 90% die young, 10% live ~100 ms.
  for (int i = 0; i < 900; ++i) liveness.add(1'000'000);
  for (int i = 0; i < 100; ++i) liveness.add(100'000'000);
  EXPECT_EQ(RetentionAdvisor::recommend(liveness, 0.85), RetentionClass::Lo);
  EXPECT_EQ(RetentionAdvisor::recommend(liveness, 0.99), RetentionClass::Mid);
}

TEST(RetentionAdvisor, EmptyHistogramFallsBackToHi) {
  Log2Histogram empty;
  EXPECT_EQ(RetentionAdvisor::recommend(empty), RetentionClass::Hi);
}

TEST(MrsttConfig, BuilderWiresClassesAndPolicy) {
  const StaticPartitionConfig c =
      make_mrstt_config(512ull << 10, 8, RetentionClass::Mid, 128ull << 10, 8,
                        RetentionClass::Lo, RefreshPolicy::ScrubAll);
  EXPECT_EQ(c.user.tech, TechKind::SttRam);
  EXPECT_EQ(c.user.retention, RetentionClass::Mid);
  EXPECT_EQ(c.user.cache.size_bytes, 512ull << 10);
  EXPECT_EQ(c.kernel.retention, RetentionClass::Lo);
  EXPECT_EQ(c.kernel.refresh, RefreshPolicy::ScrubAll);
}

TEST(MultiRetention, EndToEndKernelBlocksDieYoungerThanUser) {
  // The paper's Figure-4 claim, in miniature: run a partitioned cache on a
  // synthetic stream where kernel lines churn and user lines persist, and
  // check the recorder sees the asymmetry that justifies (LO, MID).
  StaticPartitionConfig c;
  c.user = sram_segment(64ull << 10, 8);
  c.kernel = sram_segment(64ull << 10, 8);
  StaticPartitionedL2 l2(c);
  LifetimeRecorder rec;
  l2.add_eviction_observer(rec.observer());

  Cycle now = 0;
  for (std::uint64_t round = 0; round < 50; ++round) {
    // User: loop over a small set repeatedly (long residency).
    for (std::uint64_t i = 0; i < 64; ++i) {
      l2.access(i * kLineSize, AccessType::Read, Mode::User, now);
      now += 30;
    }
    // Kernel: stream new lines every round (short residency, heavy churn).
    for (std::uint64_t i = 0; i < 2048; ++i) {
      l2.access(kKernelSpaceBase + (round * 2048 + i) * kLineSize,
                AccessType::Read, Mode::Kernel, now);
      now += 3;
    }
  }
  ASSERT_GT(rec.events(Mode::Kernel), 1000u);
  const auto kernel_median =
      rec.residency(Mode::Kernel).quantile_upper_bound(0.5);
  // User blocks essentially never evict (they fit), kernel blocks churn.
  EXPECT_EQ(rec.events(Mode::User), 0u);
  EXPECT_LT(kernel_median, static_cast<std::uint64_t>(now));
}

}  // namespace
}  // namespace mobcache
