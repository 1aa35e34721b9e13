#include "sim/hierarchy.hpp"

#include <gtest/gtest.h>

#include "core/shared_l2.hpp"
#include "sim/cpi_model.hpp"

namespace mobcache {
namespace {

SharedL2Config small_l2_cfg() {
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 256ull << 10;
  c.cache.assoc = 8;
  return c;
}

/// Owns the L2 alongside the hierarchy so tests keep a one-liner setup.
struct Rig {
  Rig() : l2(small_l2_cfg()), h(HierarchyConfig{}, l2) {}
  SharedL2 l2;
  MemoryHierarchy h;
};

Access user_read(Addr a) {
  Access x;
  x.addr = a;
  x.type = AccessType::Read;
  x.mode = Mode::User;
  return x;
}

Access user_write(Addr a) {
  Access x = user_read(a);
  x.type = AccessType::Write;
  return x;
}

Access ifetch(Addr a) {
  Access x = user_read(a);
  x.type = AccessType::InstFetch;
  return x;
}

TEST(Hierarchy, L1HitIsFree) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  h.access(user_read(0x1000), 0);  // cold miss
  const Cycle stall = h.access(user_read(0x1000), 10);
  EXPECT_EQ(stall, 0u);
  EXPECT_EQ(h.l1d_stats().total_hits(), 1u);
}

TEST(Hierarchy, L1MissStallsThroughL2) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  const Cycle stall = h.access(user_read(0x1000), 0);
  // Cold: misses L1 and L2 → L1 latency + L2 read + DRAM visible stall.
  EXPECT_EQ(stall, 1 + tech_constants::kSramLat2Mb +
                       tech_constants::kDramVisibleStall);
  EXPECT_EQ(h.l2().aggregate_stats().total_accesses(), 1u);
}

TEST(Hierarchy, L2HitCheaperThanMiss) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  h.access(user_read(0x1000), 0);
  // Evict from tiny L1 by conflicting lines, keeping L2 resident.
  const std::uint64_t l1_sets = (32ull << 10) / (kLineSize * 4);
  for (int i = 1; i <= 8; ++i)
    h.access(user_read(0x1000 + i * l1_sets * kLineSize), 10 * i);
  const Cycle stall = h.access(user_read(0x1000), 1000);
  EXPECT_EQ(stall, 1 + tech_constants::kSramLat2Mb);  // L2 hit, no DRAM
}

TEST(Hierarchy, IfetchGoesToL1I) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  h.access(ifetch(0x4000), 0);
  EXPECT_EQ(h.l1i_stats().total_accesses(), 1u);
  EXPECT_EQ(h.l1d_stats().total_accesses(), 0u);
  h.access(user_read(0x4000), 1);  // same line via data port: separate L1
  EXPECT_EQ(h.l1d_stats().total_accesses(), 1u);
  EXPECT_EQ(h.l1d_stats().total_hits(), 0u);  // L1I and L1D are split
}

TEST(Hierarchy, StoresArePosted) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  EXPECT_EQ(h.access(user_write(0x2000), 0), 0u);  // even a cold store
}

TEST(Hierarchy, DirtyL1VictimWritesBackToL2WithOwnerMode) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  // Dirty a kernel line in L1D, then evict it with user conflicts.
  Access kw;
  kw.addr = kKernelSpaceBase;
  kw.type = AccessType::Write;
  kw.mode = Mode::Kernel;
  h.access(kw, 0);

  const std::uint64_t l1_sets = (32ull << 10) / (kLineSize * 4);
  // Lines conflicting with kKernelSpaceBase's L1 set (set 0).
  for (int i = 1; i <= 4; ++i)
    h.access(user_read(i * l1_sets * kLineSize), 10 * i);

  // The L2 must have received a kernel-owned write (the castout) beyond the
  // five demand fetches.
  const CacheStats l2 = h.l2().aggregate_stats();
  EXPECT_EQ(l2.accesses[static_cast<int>(Mode::Kernel)], 2u)
      << "demand fetch + castout, both attributed to kernel";
}

TEST(Hierarchy, L1EnergyAccrues) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  h.access(user_read(0x1000), 0);
  const double after_miss = h.l1_energy_nj();
  EXPECT_GT(after_miss, 0.0);
  h.access(user_read(0x1000), 1);
  EXPECT_GT(h.l1_energy_nj(), after_miss);
  h.finalize(1000);
  EXPECT_GT(h.l1_energy_nj(), after_miss);  // leakage settled
}

TEST(Hierarchy, FinalizeIsIdempotent) {
  Rig rig;
  MemoryHierarchy& h = rig.h;
  h.access(user_read(0x1000), 0);
  h.finalize(100);
  const double e = h.l1_energy_nj();
  h.finalize(100);
  EXPECT_EQ(h.l1_energy_nj(), e);
}

TEST(CpiModel, BaseAndStallArithmetic) {
  static_assert(kBaseCpi == 2.0);
  CpiModel m;
  EXPECT_EQ(m.now(), 0u);
  m.retire(0);
  EXPECT_EQ(m.now(), 2u);
  m.retire(10);
  EXPECT_EQ(m.now(), 14u);
  EXPECT_EQ(m.records(), 2u);
  EXPECT_EQ(m.stall_cycles(), 10u);
  EXPECT_DOUBLE_EQ(m.cpi(), 7.0);
}

TEST(CpiModel, EmptyCpiIsZero) {
  CpiModel m;
  EXPECT_EQ(m.cpi(), 0.0);
}

}  // namespace
}  // namespace mobcache
