#include "core/shared_l2.hpp"

#include <gtest/gtest.h>

namespace mobcache {
namespace {

SharedL2Config sram_cfg(std::uint64_t size = 256ull << 10) {
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = size;
  c.cache.assoc = 8;
  c.tech = TechKind::Sram;
  return c;
}

SharedL2Config stt_cfg(RetentionClass r) {
  SharedL2Config c = sram_cfg();
  c.tech = TechKind::SttRam;
  c.retention = r;
  return c;
}

TEST(SharedL2, MissChargesDramAndFill) {
  SharedL2 l2(sram_cfg());
  const L2Result r = l2.access(0x1000, AccessType::Read, Mode::User, 0);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.latency, l2.tech().read_latency +
                           tech_constants::kDramVisibleStall);
  const EnergyBreakdown& e = l2.energy();
  EXPECT_GT(e.read_nj, 0.0);
  EXPECT_GT(e.write_nj, 0.0);  // fill
  EXPECT_DOUBLE_EQ(e.dram_nj, tech_constants::kDramAccessNj);
}

TEST(SharedL2, HitChargesReadOnly) {
  SharedL2 l2(sram_cfg());
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  const double dram_before = l2.energy().dram_nj;
  const L2Result r = l2.access(0x1000, AccessType::Read, Mode::User, 100);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.latency, l2.tech().read_latency);
  EXPECT_DOUBLE_EQ(l2.energy().dram_nj, dram_before);
}

TEST(SharedL2, StoreHitIsPosted) {
  SharedL2 l2(sram_cfg());
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  const L2Result r = l2.access(0x1000, AccessType::Write, Mode::User, 100);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.latency, 0u);
}

TEST(SharedL2, SttWriteOccupiesBank) {
  SharedL2 l2(stt_cfg(RetentionClass::Hi));
  l2.access(0x1000, AccessType::Read, Mode::User, 0);
  // A store hit at t=100 busies the bank for write_latency cycles; a read
  // to the SAME bank right after must absorb the remainder.
  l2.access(0x1000, AccessType::Write, Mode::User, 100);
  const L2Result r = l2.access(0x1000, AccessType::Read, Mode::User, 101);
  EXPECT_TRUE(r.hit);
  const Cycle wl = l2.tech().write_latency;
  EXPECT_EQ(r.latency, (100 + wl - 101) + l2.tech().read_latency);
}

TEST(SharedL2, DifferentBankUnaffectedByWrite) {
  SharedL2 l2(stt_cfg(RetentionClass::Hi));
  // Lines 0 and 1 land in different banks (bank = line index & 3).
  l2.access(0, AccessType::Read, Mode::User, 0);
  l2.access(kLineSize, AccessType::Read, Mode::User, 10);
  l2.access(0, AccessType::Write, Mode::User, 100);
  const L2Result r = l2.access(kLineSize, AccessType::Read, Mode::User, 101);
  EXPECT_EQ(r.latency, l2.tech().read_latency);
}

TEST(SharedL2, WritebackAllocates) {
  SharedL2 l2(sram_cfg());
  l2.writeback(0x2000, Mode::Kernel, 0);
  const L2Result r = l2.access(0x2000, AccessType::Read, Mode::Kernel, 10);
  EXPECT_TRUE(r.hit);
}

TEST(SharedL2, FinalizeAddsLeakageOnce) {
  SharedL2 l2(sram_cfg());
  l2.finalize(1'000'000);
  const double leak = l2.energy().leakage_nj;
  EXPECT_NEAR(leak, l2.tech().leakage_nj(1'000'000), 1e-6);
  l2.finalize(2'000'000);  // idempotent
  EXPECT_DOUBLE_EQ(l2.energy().leakage_nj, leak);
}

TEST(SharedL2, FinalizeFlushesResidualDirty) {
  SharedL2 l2(sram_cfg());
  l2.access(0x1000, AccessType::Write, Mode::User, 0);
  const double dram_before = l2.energy().dram_nj;
  l2.finalize(100);
  EXPECT_NEAR(l2.energy().dram_nj - dram_before,
              tech_constants::kDramAccessNj, 1e-9);
}

TEST(SharedL2, SttLowRetentionRefreshesOrExpires) {
  SharedL2Config c = stt_cfg(RetentionClass::Lo);
  c.refresh = RefreshPolicy::ScrubDirty;
  SharedL2 l2(c);
  l2.access(0x1000, AccessType::Write, Mode::User, 0);
  // Walk time far past several retention periods with unrelated traffic so
  // the controller ticks.
  const Cycle ret = tech_constants::kRetentionLoCycles;
  for (int i = 1; i <= 6; ++i)
    l2.access(0x8000 + i * 0x40, AccessType::Read, Mode::User,
              static_cast<Cycle>(i) * ret / 2);
  l2.finalize(4 * ret);
  EXPECT_GT(l2.aggregate_stats().refreshes, 0u)
      << "dirty block must have been scrubbed at least once";
}

TEST(SharedL2, CapacityAndDescribe) {
  SharedL2 l2(sram_cfg(512ull << 10));
  EXPECT_EQ(l2.capacity_bytes(), 512ull << 10);
  EXPECT_EQ(l2.avg_enabled_bytes(), 512.0 * 1024);
  EXPECT_NE(l2.describe().find("512KB"), std::string::npos);
  EXPECT_NE(l2.describe().find("SRAM"), std::string::npos);

  SharedL2 stt(stt_cfg(RetentionClass::Mid));
  EXPECT_NE(stt.describe().find("STT-RAM"), std::string::npos);
  EXPECT_NE(stt.describe().find("MID"), std::string::npos);
}

TEST(SharedL2, RefreshIntervalClampedToHalfRetention) {
  // At 85 °C, E19's hottest point, LO retention shrinks below the 2 M-cycle
  // maintenance cadence, so only the t_ret/2 clamp makes a tick due at
  // t_ret/2.
  TechnologyConfig hot;
  hot.temperature_k = 85.0 + 273.0;
  const ScopedTechnology scope(hot);
  const Cycle ret = retention_cycles_of(RetentionClass::Lo);
  ASSERT_LT(ret, 2'000'000u);
  SharedL2 l2(stt_cfg(RetentionClass::Lo));
  // A dirty block written at t=0 must still be alive at 1.25·t_ret because
  // the clamped controller scrubbed it in time.
  l2.access(0x1000, AccessType::Write, Mode::User, 0);
  l2.access(0x2000, AccessType::Read, Mode::User, ret / 2);  // triggers tick
  EXPECT_TRUE(l2.array().contains(0x1000, ret + ret / 4));
}

}  // namespace
}  // namespace mobcache
