#include "core/static_partitioned_l2.hpp"

#include <gtest/gtest.h>

namespace mobcache {
namespace {

StaticPartitionConfig cfg() {
  StaticPartitionConfig c;
  c.user = sram_segment(256ull << 10, 8);
  c.kernel = sram_segment(128ull << 10, 8);
  return c;
}

TEST(StaticPartition, RoutesByMode) {
  StaticPartitionedL2 l2(cfg());
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  l2.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel, 1);

  EXPECT_EQ(l2.segment(Mode::User).aggregate_stats().total_accesses(), 1u);
  EXPECT_EQ(l2.segment(Mode::Kernel).aggregate_stats().total_accesses(), 1u);
}

TEST(StaticPartition, NoCrossModeInterferenceEver) {
  StaticPartitionedL2 l2(cfg());
  // Hammer the kernel segment; the user block must stay resident.
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    l2.access(kKernelSpaceBase + i * kLineSize, AccessType::Read, Mode::Kernel,
              10 + i);
  }
  const L2Result r = l2.access(0x1000, AccessType::Read, Mode::User, 200'000);
  EXPECT_TRUE(r.hit) << "kernel traffic evicted a user block across the "
                        "partition boundary";
  EXPECT_EQ(l2.aggregate_stats().cross_mode_evictions, 0u);
}

TEST(StaticPartition, CapacityIsSumOfSegments) {
  StaticPartitionedL2 l2(cfg());
  EXPECT_EQ(l2.capacity_bytes(), (256ull + 128ull) << 10);
  EXPECT_DOUBLE_EQ(l2.avg_enabled_bytes(), (256.0 + 128.0) * 1024);
}

TEST(StaticPartition, EnergyIsSumOfSegments) {
  StaticPartitionedL2 l2(cfg());
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  l2.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel, 1);
  l2.finalize(1'000'000);

  const EnergyBreakdown sum_segments = [&] {
    EnergyBreakdown e = l2.segment(Mode::User).energy();
    e += l2.segment(Mode::Kernel).energy();
    return e;
  }();
  EXPECT_DOUBLE_EQ(l2.energy().total_nj(), sum_segments.total_nj());
  // Leakage of 384 KB of SRAM over 1 M cycles.
  const double expect_leak = make_sram(256ull << 10).leakage_nj(1'000'000) +
                             make_sram(128ull << 10).leakage_nj(1'000'000);
  EXPECT_NEAR(l2.energy().leakage_nj, expect_leak, 1e-6);
}

TEST(StaticPartition, AggregateStatsMergeBothSegments) {
  StaticPartitionedL2 l2(cfg());
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  l2.access(0x1000, AccessType::Read, Mode::User, 1);
  l2.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel, 2);
  const CacheStats s = l2.aggregate_stats();
  EXPECT_EQ(s.total_accesses(), 3u);
  EXPECT_EQ(s.total_hits(), 1u);
  EXPECT_EQ(s.accesses[static_cast<int>(Mode::Kernel)], 1u);
}

TEST(StaticPartition, WritebackRoutedToOwnerSegment) {
  StaticPartitionedL2 l2(cfg());
  l2.writeback(kKernelSpaceBase + 0x40, Mode::Kernel, 0);
  EXPECT_EQ(l2.segment(Mode::Kernel).aggregate_stats().total_accesses(), 1u);
  EXPECT_EQ(l2.segment(Mode::User).aggregate_stats().total_accesses(), 0u);
}

TEST(StaticPartition, SegmentsCanDifferInTechnology) {
  StaticPartitionConfig c;
  c.user = sttram_segment(256ull << 10, 8, RetentionClass::Mid);
  c.kernel = sttram_segment(128ull << 10, 8, RetentionClass::Lo);
  StaticPartitionedL2 l2(c);
  EXPECT_EQ(l2.segment(Mode::User).tech().retention, RetentionClass::Mid);
  EXPECT_EQ(l2.segment(Mode::Kernel).tech().retention, RetentionClass::Lo);
  EXPECT_EQ(l2.segment(Mode::Kernel).tech().retention_cycles,
            tech_constants::kRetentionLoCycles);
  const std::string d = l2.describe();
  EXPECT_NE(d.find("user"), std::string::npos);
  EXPECT_NE(d.find("kernel"), std::string::npos);
  EXPECT_NE(d.find("MID"), std::string::npos);
  EXPECT_NE(d.find("LO"), std::string::npos);
}

TEST(StaticPartition, EvictionObserverCoversBothSegments) {
  StaticPartitionConfig c;
  c.user = sram_segment(8ull << 10, 1);   // tiny direct-mapped
  c.kernel = sram_segment(8ull << 10, 1);
  StaticPartitionedL2 l2(c);
  int user_ev = 0;
  int kernel_ev = 0;
  l2.add_eviction_observer([&](const EvictionEvent& e) {
    (e.owner == Mode::User ? user_ev : kernel_ev)++;
  });
  const std::uint64_t sets = (8ull << 10) / kLineSize;
  for (std::uint64_t i = 0; i < 3; ++i) {
    l2.access(i * sets * kLineSize, AccessType::Read, Mode::User, i);
    l2.access(kKernelSpaceBase + i * sets * kLineSize, AccessType::Read,
              Mode::Kernel, i);
  }
  EXPECT_EQ(user_ev, 2);
  EXPECT_EQ(kernel_ev, 2);
}

TEST(StaticPartition, BuilderHelpers) {
  const SegmentSpec s = sram_segment(64ull << 10, 4);
  EXPECT_EQ(s.tech, TechKind::Sram);
  EXPECT_EQ(s.size_bytes, 64ull << 10);
  const SegmentSpec t =
      sttram_segment(64ull << 10, 4, RetentionClass::Lo,
                     RefreshPolicy::ScrubAll);
  EXPECT_EQ(t.tech, TechKind::SttRam);
  EXPECT_EQ(t.retention, RetentionClass::Lo);
  EXPECT_EQ(t.refresh, RefreshPolicy::ScrubAll);
}

}  // namespace
}  // namespace mobcache
