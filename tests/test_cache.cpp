#include "cache/set_assoc_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mobcache {
namespace {

CacheConfig small_config(std::uint32_t assoc = 4,
                         std::uint64_t size = 16ull << 10) {
  CacheConfig c;
  c.name = "test";
  c.size_bytes = size;
  c.assoc = assoc;
  return c;
}

Addr user_line(std::uint64_t i) { return i * kLineSize; }

TEST(CacheConfig, GeometryMath) {
  CacheConfig c = small_config(4, 16ull << 10);
  EXPECT_EQ(c.num_sets(), 64u);
  EXPECT_EQ(c.num_lines(), 256u);
  EXPECT_NO_THROW(c.validate());
}

TEST(CacheConfig, RejectsBadGeometry) {
  CacheConfig c = small_config();
  c.size_bytes = 1000;  // not a multiple of line*assoc
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(0);
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(65);
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(3);  // 16KB/(64*3) is not integral/power-of-two sets
  EXPECT_THROW(c.validate(), std::invalid_argument);

  // PLRU needs power-of-two associativity: build a 12-way geometry with a
  // power-of-two set count (12 ways × 64 B × 64 sets = 48 KB).
  c = small_config(12, 48ull << 10);
  EXPECT_NO_THROW(c.validate());
  c.repl = ReplKind::Plru;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(WayMask, Helpers) {
  EXPECT_EQ(full_way_mask(4), 0b1111ull);
  EXPECT_EQ(full_way_mask(64), ~0ull);
  EXPECT_EQ(way_range_mask(2, 3), 0b11100ull);
  EXPECT_EQ(way_range_mask(0, 0), 0ull);
}

TEST(Cache, ColdMissThenHit) {
  SetAssocCache c(small_config());
  auto r1 = c.access(user_line(1), AccessType::Read, Mode::User, 10);
  EXPECT_FALSE(r1.hit);
  EXPECT_TRUE(r1.filled);
  EXPECT_FALSE(r1.evicted_valid);

  auto r2 = c.access(user_line(1), AccessType::Read, Mode::User, 20);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(c.stats().total_accesses(), 2u);
  EXPECT_EQ(c.stats().total_hits(), 1u);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, SetConflictEvictsLru) {
  SetAssocCache c(small_config(2, 8ull << 10));  // 64 sets, 2 ways
  const std::uint32_t sets = c.num_sets();
  // Three lines mapping to set 0.
  const Addr a = user_line(0);
  const Addr b = user_line(sets);
  const Addr d = user_line(2 * sets);
  c.access(a, AccessType::Read, Mode::User, 1);
  c.access(b, AccessType::Read, Mode::User, 2);
  auto r = c.access(d, AccessType::Read, Mode::User, 3);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_EQ(r.victim_line, a);  // LRU
  EXPECT_FALSE(c.contains(a, 4));
  EXPECT_TRUE(c.contains(b, 4));
  EXPECT_TRUE(c.contains(d, 4));
}

TEST(Cache, DirtyVictimReportsWriteback) {
  SetAssocCache c(small_config(1, 4ull << 10));  // direct-mapped, 64 sets
  const std::uint32_t sets = c.num_sets();
  c.access(user_line(0), AccessType::Write, Mode::User, 1);
  auto r = c.access(user_line(sets), AccessType::Read, Mode::User, 2);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_TRUE(r.victim_dirty);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, StoreHitMarksDirty) {
  SetAssocCache c(small_config());
  c.access(user_line(3), AccessType::Read, Mode::User, 1);
  EXPECT_FALSE(c.block(c.set_index(user_line(3)), 0).dirty);
  c.access(user_line(3), AccessType::Write, Mode::User, 2);
  EXPECT_EQ(c.stats().store_hits, 1u);
  bool found_dirty = false;
  c.for_each_valid_block([&](std::uint32_t, std::uint32_t,
                             const BlockMeta& b) {
    if (b.line == user_line(3)) found_dirty = b.dirty;
  });
  EXPECT_TRUE(found_dirty);
}

TEST(Cache, CrossModeEvictionCounted) {
  SetAssocCache c(small_config(1, 4ull << 10));
  const std::uint32_t sets = c.num_sets();
  // Kernel line and user line that collide in set 0.
  const Addr ku = kKernelSpaceBase;  // set 0
  c.access(ku, AccessType::Read, Mode::Kernel, 1);
  auto r = c.access(user_line(sets), AccessType::Read, Mode::User, 2);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_EQ(r.victim_owner, Mode::Kernel);
  EXPECT_EQ(c.stats().cross_mode_evictions, 1u);
}

TEST(Cache, WayMaskConfinesFillsAndLookups) {
  SetAssocCache c(small_config(4));
  const WayMask low = way_range_mask(0, 2);
  const WayMask high = way_range_mask(2, 2);

  c.access(user_line(1), AccessType::Read, Mode::User, 1, low);
  // The block is invisible through the disjoint mask.
  auto r = c.access(user_line(1), AccessType::Read, Mode::Kernel, 2, high);
  EXPECT_FALSE(r.hit);
  // And visible through its own mask.
  auto r2 = c.access(user_line(1), AccessType::Read, Mode::User, 3, low);
  EXPECT_TRUE(r2.hit);
  EXPECT_LT(r2.way, 2u);

  // Fills never land outside the mask.
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto rr = c.access(user_line(i * c.num_sets()), AccessType::Read,
                       Mode::User, 10 + i, low);
    EXPECT_LT(rr.way, 2u);
  }
}

TEST(Cache, InvalidateWaysFlushesAndCountsDirty) {
  SetAssocCache c(small_config(4));
  c.access(user_line(0), AccessType::Write, Mode::User, 1);  // way 0, dirty
  c.access(user_line(c.num_sets()), AccessType::Read, Mode::User, 2);  // way 1
  const std::uint64_t dirty = c.invalidate_ways(way_range_mask(0, 2));
  EXPECT_EQ(dirty, 1u);
  EXPECT_EQ(c.occupancy(full_way_mask(4), 3), 0u);
}

TEST(Cache, OccupancyPerWayRange) {
  SetAssocCache c(small_config(4));
  c.access(user_line(0), AccessType::Read, Mode::User, 1, way_range_mask(0, 2));
  c.access(kKernelSpaceBase, AccessType::Write, Mode::Kernel, 2,
           way_range_mask(2, 2));
  EXPECT_EQ(c.occupancy(way_range_mask(0, 2), 3), 1u);
  EXPECT_EQ(c.occupancy(way_range_mask(2, 2), 3), 1u);
  EXPECT_EQ(c.dirty_occupancy(way_range_mask(2, 2), 3), 1u);
  EXPECT_EQ(c.dirty_occupancy(way_range_mask(0, 2), 3), 0u);
}

TEST(Cache, EvictionObserverSeesLifetimes) {
  SetAssocCache c(small_config(1, 4ull << 10));
  std::vector<EvictionEvent> events;
  c.add_eviction_observer([&](const EvictionEvent& e) { events.push_back(e); });

  c.access(user_line(0), AccessType::Write, Mode::User, 100);
  c.access(user_line(0), AccessType::Read, Mode::User, 150);
  c.access(user_line(c.num_sets()), AccessType::Read, Mode::User, 200);

  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].line, user_line(0));
  EXPECT_EQ(events[0].fill_cycle, 100u);
  EXPECT_EQ(events[0].last_access, 150u);
  EXPECT_EQ(events[0].evict_cycle, 200u);
  EXPECT_TRUE(events[0].dirty);
  EXPECT_EQ(events[0].access_count, 2u);
  EXPECT_EQ(events[0].owner, Mode::User);
}

TEST(Cache, StatsPerModeAndReset) {
  SetAssocCache c(small_config());
  c.access(user_line(0), AccessType::Read, Mode::User, 1);
  c.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel, 2);
  c.access(kKernelSpaceBase, AccessType::Read, Mode::Kernel, 3);
  EXPECT_EQ(c.stats().accesses[0], 1u);
  EXPECT_EQ(c.stats().accesses[1], 2u);
  EXPECT_DOUBLE_EQ(c.stats().kernel_access_fraction(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(Mode::Kernel), 0.5);
  c.reset_stats();
  EXPECT_EQ(c.stats().total_accesses(), 0u);
}

TEST(Cache, XorIndexingStillFindsBlocks) {
  CacheConfig cfg = small_config();
  cfg.xor_index = true;
  SetAssocCache c(cfg);
  // Functional equivalence: whatever the index hash, a filled line is found
  // again and distinct lines stay distinct.
  for (std::uint64_t i = 0; i < 200; ++i)
    c.access(user_line(i * 17), AccessType::Read, Mode::User, i);
  for (std::uint64_t i = 150; i < 200; ++i) {
    EXPECT_TRUE(c.contains(user_line(i * 17), 1000)) << i;
  }
}

TEST(Cache, XorIndexingBreaksPowerOfTwoConflicts) {
  // Lines exactly num_sets apart all collide under modulo indexing but
  // spread out under xor folding.
  CacheConfig plain = small_config(2, 8ull << 10);
  CacheConfig hashed = plain;
  hashed.xor_index = true;
  SetAssocCache cp(plain);
  SetAssocCache ch(hashed);
  const std::uint64_t sets = cp.num_sets();

  std::uint64_t plain_distinct = 0;
  std::uint64_t hashed_distinct = 0;
  std::uint32_t prev_p = cp.set_index(0);
  std::uint32_t prev_h = ch.set_index(0);
  for (std::uint64_t i = 1; i < 16; ++i) {
    const Addr line = user_line(i * sets);
    plain_distinct += cp.set_index(line) != prev_p;
    hashed_distinct += ch.set_index(line) != prev_h;
    prev_p = cp.set_index(line);
    prev_h = ch.set_index(line);
  }
  EXPECT_EQ(plain_distinct, 0u) << "modulo maps the stride to one set";
  EXPECT_GT(hashed_distinct, 8u) << "xor folding must spread the stride";
}

TEST(Cache, KernelAddressesMapAcrossSets) {
  SetAssocCache c(small_config());
  // Kernel high bits must not alias everything into one set.
  const std::uint32_t s1 = c.set_index(kKernelSpaceBase);
  const std::uint32_t s2 = c.set_index(kKernelSpaceBase + kLineSize);
  EXPECT_NE(s1, s2);
}

}  // namespace
}  // namespace mobcache
