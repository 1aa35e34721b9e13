#include "cache/prefetcher.hpp"

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

TEST(Prefetcher, DisabledNeverIssues) {
  StridePrefetcher p(/*enabled=*/false);
  for (Addr a = 0; a < 100 * kLineSize; a += kLineSize)
    EXPECT_TRUE(p.observe_miss(a, Mode::User).empty());
  EXPECT_EQ(p.issued(), 0u);
}

TEST(Prefetcher, TrainsOnSequentialStream) {
  StridePrefetcher p(/*enabled=*/true);
  EXPECT_TRUE(p.observe_miss(0, Mode::User).empty());           // first touch
  EXPECT_TRUE(p.observe_miss(kLineSize, Mode::User).empty());   // stride seen
  // Third miss confirms the stride; candidates are the next two lines.
  const auto c = p.observe_miss(2 * kLineSize, Mode::User);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 3 * kLineSize);
  EXPECT_EQ(c[1], 4 * kLineSize);
}

TEST(Prefetcher, DetectsLargerStrides) {
  StridePrefetcher p(/*enabled=*/true);
  const Addr stride = 4 * kLineSize;
  p.observe_miss(0x1000, Mode::User);
  p.observe_miss(0x1000 + stride, Mode::User);
  const auto c = p.observe_miss(0x1000 + 2 * stride, Mode::User);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 0x1000 + 3 * stride);
  EXPECT_EQ(c[1], 0x1000 + 4 * stride);
}

TEST(Prefetcher, DetectsDescendingStreams) {
  StridePrefetcher p(/*enabled=*/true);
  // Stay inside one 4 KB tracking region (training restarts across
  // region boundaries, as in page-based hardware prefetchers).
  const Addr top = 0x10FC0;
  p.observe_miss(top, Mode::User);
  p.observe_miss(top - kLineSize, Mode::User);
  const auto c = p.observe_miss(top - 2 * kLineSize, Mode::User);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], top - 3 * kLineSize);
  EXPECT_EQ(c[1], top - 4 * kLineSize);
}

TEST(Prefetcher, RandomPatternStaysQuiet) {
  StridePrefetcher p(/*enabled=*/true);
  // Deltas differ every time: never two consecutive confirmations.
  std::uint64_t issued = 0;
  Addr a = 0x5000;
  const Addr deltas[] = {kLineSize, 3 * kLineSize, 2 * kLineSize,
                         5 * kLineSize, kLineSize, 4 * kLineSize};
  for (Addr d : deltas) {
    a += d;
    issued += p.observe_miss(a, Mode::User).size();
  }
  EXPECT_EQ(issued, 0u);
}

TEST(Prefetcher, NeverCrossesAddressSpaceHalf) {
  StridePrefetcher p(/*enabled=*/true);
  // Kernel stream marching toward the top of the address space: candidates
  // must stay kernel-side (they do), but a user stream near the kernel
  // boundary must not fabricate kernel addresses.
  const Addr base = kKernelSpaceBase - 4 * kLineSize;
  p.observe_miss(base, Mode::User);
  p.observe_miss(base + kLineSize, Mode::User);
  const auto c = p.observe_miss(base + 2 * kLineSize, Mode::User);
  ASSERT_EQ(c.size(), 1u);  // only one of the two fits before the boundary
  for (Addr x : c) EXPECT_FALSE(is_kernel_addr(x));
}

TEST(Prefetcher, PerModeTablesIndependent) {
  StridePrefetcher p(/*enabled=*/true);
  // Interleaved user and kernel streams must both train.
  for (int i = 0; i < 3; ++i) {
    p.observe_miss(static_cast<Addr>(i) * kLineSize, Mode::User);
    p.observe_miss(kKernelSpaceBase + static_cast<Addr>(i) * kLineSize,
                   Mode::Kernel);
  }
  EXPECT_GE(p.issued(), 2u);
}

TEST(Prefetcher, TracksMultipleRegions) {
  StridePrefetcher p(/*enabled=*/true);
  // Two concurrent streams in different 4 KB regions.
  for (int i = 0; i < 3; ++i) {
    p.observe_miss(0x00000 + static_cast<Addr>(i) * kLineSize, Mode::User);
    p.observe_miss(0x80000 + static_cast<Addr>(i) * kLineSize, Mode::User);
  }
  EXPECT_GE(p.issued(), 2u);
}

TEST(PrefetchCache, FillsAreAccountedSeparately) {
  CacheConfig cfg;
  cfg.size_bytes = 16ull << 10;
  cfg.assoc = 4;
  SetAssocCache c(cfg);
  c.access(0, AccessType::Read, Mode::User, 0, full_way_mask(4),
           /*prefetch=*/true);
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  EXPECT_EQ(c.stats().total_accesses(), 0u);
  EXPECT_EQ(c.stats().fills, 0u);

  // Demand hit on the prefetched line counts as useful.
  const AccessResult r = c.access(0, AccessType::Read, Mode::User, 10);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.stats().useful_prefetches, 1u);
  // Only the first demand touch counts.
  c.access(0, AccessType::Read, Mode::User, 20);
  EXPECT_EQ(c.stats().useful_prefetches, 1u);
}

TEST(PrefetchCache, PrefetchOfResidentLineIsNoop) {
  CacheConfig cfg;
  cfg.size_bytes = 16ull << 10;
  cfg.assoc = 4;
  SetAssocCache c(cfg);
  c.access(0, AccessType::Read, Mode::User, 0);
  const AccessResult r = c.access(0, AccessType::Read, Mode::User, 5,
                                  full_way_mask(4), /*prefetch=*/true);
  EXPECT_TRUE(r.hit);
  EXPECT_FALSE(r.filled);
  EXPECT_EQ(c.stats().prefetch_fills, 0u);
}

TEST(PrefetchEndToEnd, StreamingAppBenefits) {
  // fft is stride-dominated: prefetch must reduce its stall cycles.
  const Trace t = generate_app_trace(AppId::ComputeFft, 200'000, 3);

  SimOptions off;
  const SimResult r_off = simulate(t, build_scheme(SchemeKind::BaselineSram), off);

  SimOptions on;
  on.hierarchy.prefetch = true;
  const SimResult r_on = simulate(t, build_scheme(SchemeKind::BaselineSram), on);

  EXPECT_GT(r_on.l2.prefetch_fills, 0u);
  EXPECT_GT(r_on.l2.useful_prefetches, r_on.l2.prefetch_fills / 4)
      << "stream prefetch accuracy collapsed";
  EXPECT_LT(r_on.cycles, r_off.cycles);
  EXPECT_LT(r_on.l2_miss_rate(), r_off.l2_miss_rate());
}

TEST(PrefetchEndToEnd, WorksOnEveryScheme) {
  const Trace t = generate_app_trace(AppId::VideoPlayer, 100'000, 3);
  SimOptions on;
  on.hierarchy.prefetch = true;
  for (SchemeKind k : headline_schemes()) {
    const SimResult r = simulate(t, build_scheme(k), on);
    EXPECT_GT(r.l2.prefetch_fills, 0u) << scheme_name(k);
    // Conservation still holds for demand counters.
    EXPECT_EQ(r.l2.total_hits() + r.l2.total_misses(), r.l2.total_accesses())
        << scheme_name(k);
  }
}

}  // namespace
}  // namespace mobcache
