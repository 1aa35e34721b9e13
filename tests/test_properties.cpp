/// \file test_properties.cpp
/// Property-based sweeps: randomized streams through every cache
/// configuration, checking structural invariants that must hold for any
/// input (TEST_P over policy × associativity × retention).

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"
#include "core/multicore_l2.hpp"
#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

// gtest lists each case with a raw byte dump of its parameter, so the
// struct carries no implicit padding: the three bytes after `repl` are an
// explicit zeroed field, which keeps the listed names identical run to run.
struct CacheProp {
  CacheProp(ReplKind r, std::uint32_t a, Cycle ret)
      : repl(r), assoc(a), retention(ret) {}

  ReplKind repl;
  std::uint8_t pad[3]{};
  std::uint32_t assoc;
  Cycle retention;  // 0 = infinite
};
static_assert(sizeof(CacheProp) == 16);

class CacheInvariants : public ::testing::TestWithParam<CacheProp> {};

TEST_P(CacheInvariants, RandomStreamPreservesInvariants) {
  const CacheProp p = GetParam();
  CacheConfig cfg;
  cfg.name = "prop";
  cfg.assoc = p.assoc;
  cfg.size_bytes = 64ull * p.assoc * 64;  // 64 sets
  cfg.repl = p.repl;
  SetAssocCache c(cfg, /*seed=*/5);
  c.set_retention_period(p.retention);

  Rng rng(p.assoc * 1000 + static_cast<int>(p.repl));
  Cycle now = 0;
  std::uint64_t evictions_seen = 0;
  c.add_eviction_observer([&](const EvictionEvent& e) {
    ++evictions_seen;
    // Lifetime ordering must always hold.
    EXPECT_LE(e.fill_cycle, e.last_access);
    EXPECT_LE(e.last_access, e.evict_cycle);
    EXPECT_GE(e.access_count, 1u);
  });

  for (int i = 0; i < 20'000; ++i) {
    now += rng.below(20) + 1;
    const bool kernel = rng.chance(0.4);
    const Addr line =
        (kernel ? kKernelSpaceBase : 0) + rng.below(512) * kLineSize;
    const auto type =
        rng.chance(0.3) ? AccessType::Write : AccessType::Read;

    // Random (but non-empty) way mask, fixed per mode to emulate
    // partitioned usage.
    const WayMask mask = kernel ? way_range_mask(p.assoc / 2,
                                                 p.assoc - p.assoc / 2)
                                : way_range_mask(0, p.assoc / 2 == 0
                                                        ? 1
                                                        : p.assoc / 2);
    const AccessResult r =
        c.access(line, type, kernel ? Mode::Kernel : Mode::User, now, mask);

    // The touched way must be inside the mask.
    ASSERT_NE((mask >> r.way) & 1, 0u);
    // Hit and fill are mutually exclusive, and a miss always fills.
    ASSERT_NE(r.hit, r.filled);
  }

  // Conservation: accesses = hits + misses; fills == misses.
  const CacheStats& s = c.stats();
  EXPECT_EQ(s.total_hits() + s.total_misses(), s.total_accesses());
  EXPECT_EQ(s.fills, s.total_misses());
  // Every eviction of a valid block was observed.
  EXPECT_EQ(evictions_seen, s.evictions + s.expired_blocks);
  // Occupancy can never exceed capacity.
  EXPECT_LE(c.occupancy(full_way_mask(p.assoc), now), cfg.num_lines());
}

std::vector<CacheProp> cache_props() {
  std::vector<CacheProp> v;
  for (ReplKind r : {ReplKind::Lru, ReplKind::Fifo, ReplKind::Random,
                     ReplKind::Plru, ReplKind::Srrip}) {
    for (std::uint32_t a : {2u, 4u, 8u, 16u}) {
      for (Cycle ret : {Cycle{0}, Cycle{5'000}}) {
        v.push_back({r, a, ret});
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheInvariants,
                         ::testing::ValuesIn(cache_props()),
                         [](const auto& info) {
                           const CacheProp& p = info.param;
                           std::string n{to_string(p.repl)};
                           n += "_a" + std::to_string(p.assoc);
                           n += p.retention ? "_ret" : "_noret";
                           return n;
                         });

/// Every headline scheme must uphold simulator-level invariants on every
/// app — miss rates in [0,1], non-negative energy, CPI ≥ base, hit+miss
/// conservation at both levels.
struct SimProp {
  SchemeKind scheme;
  AppId app;
};

class SimInvariants : public ::testing::TestWithParam<SimProp> {};

TEST_P(SimInvariants, EndToEndConservation) {
  const SimProp p = GetParam();
  const Trace t = generate_app_trace(p.app, 60'000, 9);
  const SimResult r = simulate(t, build_scheme(p.scheme));

  EXPECT_EQ(r.records, t.size());
  EXPECT_GE(r.cycles, 2 * r.records);

  for (const CacheStats* s : {&r.l1i, &r.l1d, &r.l2}) {
    EXPECT_EQ(s->total_hits() + s->total_misses(), s->total_accesses());
    EXPECT_GE(s->miss_rate(), 0.0);
    EXPECT_LE(s->miss_rate(), 1.0);
  }
  // L1 accesses account for the whole trace.
  EXPECT_EQ(r.l1i.total_accesses() + r.l1d.total_accesses(), t.size());
  // L2 sees at least the L1 misses (plus castouts).
  EXPECT_GE(r.l2.total_accesses(),
            r.l1i.total_misses() + r.l1d.total_misses());

  EXPECT_GE(r.l2_energy.total_nj(), 0.0);
  EXPECT_GT(r.l1_energy_nj, 0.0);
  EXPECT_LE(r.l2_avg_enabled_bytes,
            static_cast<double>(r.l2_capacity_bytes) + 0.5);
}

std::vector<SimProp> sim_props() {
  std::vector<SimProp> v;
  for (SchemeKind s : headline_schemes()) {
    for (AppId a : {AppId::Launcher, AppId::Maps, AppId::ComputeMatmul}) {
      v.push_back({s, a});
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimInvariants, ::testing::ValuesIn(sim_props()),
                         [](const auto& info) {
                           std::string n = scheme_name(info.param.scheme);
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n + "_" + app_name(info.param.app);
                         });

/// Determinism across the whole stack: identical seeds ⇒ identical cycles
/// and energy for every scheme.
class DeterminismProp : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(DeterminismProp, RepeatRunsAreBitIdentical) {
  const Trace t = generate_app_trace(AppId::Email, 50'000, 4);
  const SimResult a = simulate(t, build_scheme(GetParam()));
  const SimResult b = simulate(t, build_scheme(GetParam()));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.l2_energy.total_nj(), b.l2_energy.total_nj());
  EXPECT_EQ(a.l2.total_hits(), b.l2.total_hits());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DeterminismProp,
                         ::testing::ValuesIn(headline_schemes()),
                         [](const auto& info) {
                           std::string n = scheme_name(info.param);
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

/// Random multicore traffic must never violate group isolation or the way
/// budget, for any core count.
class MulticoreInvariants : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MulticoreInvariants, RandomTrafficKeepsGroupsSound) {
  const std::uint32_t cores = GetParam();
  MulticoreL2Config cfg;
  cfg.cache.name = "L2";
  cfg.cache.size_bytes = 2ull << 20;
  cfg.cache.assoc = 16;
  cfg.cores = cores;
  cfg.epoch_accesses = 3'000;
  MulticoreDynamicL2 l2(cfg);

  Rng rng(cores * 7919);
  Cycle now = 0;
  for (int i = 0; i < 60'000; ++i) {
    now += rng.below(20) + 1;
    const auto core = static_cast<std::uint32_t>(rng.below(cores));
    const bool kernel = rng.chance(0.4);
    const Addr line =
        (kernel ? kKernelSpaceBase : core * (1ull << 44)) +
        rng.below(4096) * kLineSize;
    const auto type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
    l2.access(line, type, kernel ? Mode::Kernel : Mode::User, core, now);

    if (i % 5'000 == 0) {
      std::uint32_t total = 0;
      for (std::uint32_t g = 0; g < l2.groups(); ++g) {
        ASSERT_GE(l2.group_ways(g), 1u);
        total += l2.group_ways(g);
      }
      ASSERT_LE(total, 16u);
    }
  }
  l2.finalize(now);

  // Stats conservation holds on the shared array.
  const CacheStats s = l2.aggregate_stats();
  EXPECT_EQ(s.total_hits() + s.total_misses(), s.total_accesses());
  EXPECT_LE(l2.avg_enabled_bytes(), 2.0 * 1024 * 1024 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Cores, MulticoreInvariants,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u));

}  // namespace
}  // namespace mobcache
