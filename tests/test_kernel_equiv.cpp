/// \file test_kernel_equiv.cpp
/// Golden equivalence suite for the access-kernel family.
///
/// The fast kernels (policy-devirtualized, feature-specialized — see
/// docs/PERFORMANCE.md) must be bit-identical to the generic reference
/// kernel: same stats, same energy, same wear, same per-block state, for
/// every replacement policy, every L2 scheme, with and without retention,
/// fault hooks and eviction observers. These tests pin that contract; any
/// divergence is a kernel bug, never an acceptable "optimization".

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

// ---- comparison helpers --------------------------------------------------

#define EXPECT_FIELD_EQ(a, b, f) EXPECT_EQ((a).f, (b).f) << #f

void expect_stats_identical(const CacheStats& a, const CacheStats& b,
                            const std::string& what) {
  SCOPED_TRACE(what);
  for (int m = 0; m < kModeCount; ++m) {
    EXPECT_EQ(a.accesses[m], b.accesses[m]) << "accesses[" << m << "]";
    EXPECT_EQ(a.hits[m], b.hits[m]) << "hits[" << m << "]";
  }
  EXPECT_FIELD_EQ(a, b, store_hits);
  EXPECT_FIELD_EQ(a, b, fills);
  EXPECT_FIELD_EQ(a, b, evictions);
  EXPECT_FIELD_EQ(a, b, writebacks);
  EXPECT_FIELD_EQ(a, b, cross_mode_evictions);
  EXPECT_FIELD_EQ(a, b, expired_blocks);
  EXPECT_FIELD_EQ(a, b, expired_dirty);
  EXPECT_FIELD_EQ(a, b, refreshes);
  EXPECT_FIELD_EQ(a, b, prefetch_fills);
  EXPECT_FIELD_EQ(a, b, useful_prefetches);
  EXPECT_FIELD_EQ(a, b, write_faults);
  EXPECT_FIELD_EQ(a, b, transient_upsets);
  EXPECT_FIELD_EQ(a, b, ecc_corrections);
  EXPECT_FIELD_EQ(a, b, fault_losses);
  EXPECT_FIELD_EQ(a, b, fault_lost_dirty);
  EXPECT_FIELD_EQ(a, b, scrub_repairs);
  EXPECT_FIELD_EQ(a, b, silent_faults);
}

/// Energy comparisons are exact: the kernels must take the same branches in
/// the same order, so the L2 wrappers see identical event sequences and the
/// floating-point sums agree to the last bit.
void expect_energy_identical(const EnergyBreakdown& a,
                             const EnergyBreakdown& b,
                             const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_FIELD_EQ(a, b, leakage_nj);
  EXPECT_FIELD_EQ(a, b, read_nj);
  EXPECT_FIELD_EQ(a, b, write_nj);
  EXPECT_FIELD_EQ(a, b, refresh_nj);
  EXPECT_FIELD_EQ(a, b, dram_nj);
  EXPECT_FIELD_EQ(a, b, ecc_nj);
}

void expect_wear_identical(const WearSummary& a, const WearSummary& b,
                           const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_FIELD_EQ(a, b, total_writes);
  EXPECT_FIELD_EQ(a, b, max_writes);
  EXPECT_FIELD_EQ(a, b, mean_writes);
  EXPECT_FIELD_EQ(a, b, p99_writes);
}

void expect_result_identical(const AccessResult& a, const AccessResult& b) {
  EXPECT_FIELD_EQ(a, b, hit);
  EXPECT_FIELD_EQ(a, b, way);
  EXPECT_FIELD_EQ(a, b, filled);
  EXPECT_FIELD_EQ(a, b, evicted_valid);
  EXPECT_FIELD_EQ(a, b, victim_dirty);
  EXPECT_FIELD_EQ(a, b, victim_line);
  EXPECT_FIELD_EQ(a, b, victim_owner);
  EXPECT_FIELD_EQ(a, b, victim_access_count);
  EXPECT_FIELD_EQ(a, b, target_expired);
  EXPECT_FIELD_EQ(a, b, expired_was_dirty);
  EXPECT_FIELD_EQ(a, b, ecc_corrected);
  EXPECT_FIELD_EQ(a, b, fault_lost);
  EXPECT_FIELD_EQ(a, b, fault_lost_dirty);
}

void expect_blocks_identical(const SetAssocCache& a, const SetAssocCache& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.assoc(), b.assoc());
  for (std::uint32_t s = 0; s < a.num_sets(); ++s) {
    for (std::uint32_t w = 0; w < a.assoc(); ++w) {
      const BlockMeta x = a.block(s, w);
      const BlockMeta y = b.block(s, w);
      EXPECT_FIELD_EQ(x, y, valid) << " set " << s << " way " << w;
      if (!x.valid || !y.valid) continue;
      EXPECT_FIELD_EQ(x, y, line) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, dirty) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, owner) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, fill_cycle) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, last_access) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, last_write) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, retention_deadline) << " set " << s << " way "
                                                << w;
      EXPECT_FIELD_EQ(x, y, access_count) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, prefetched) << " set " << s << " way " << w;
      EXPECT_FIELD_EQ(x, y, fault_bits) << " set " << s << " way " << w;
    }
  }
}

// ---- deterministic fault hooks -------------------------------------------

/// Stateless, address-derived fault behavior: both cache instances see the
/// exact same hook responses regardless of call interleaving, so any
/// divergence is attributable to the kernels alone.
class StubHooks final : public ArrayFaultHooks {
 public:
  Cycle effective_retention(Addr line, Cycle nominal) override {
    return nominal - (line >> 6) % (nominal / 4 + 1);
  }
  std::uint32_t write_upsets(Addr line, std::uint32_t set,
                             std::uint32_t way) override {
    return ((line >> 6) + set * 31u + way * 7u) % 23u == 0
               ? 1u + (way & 1u)
               : 0u;
  }
  FaultReadOutcome read_check(Addr, std::uint32_t fault_bits) override {
    switch (fault_bits % 3u) {
      case 0: return FaultReadOutcome::Corrected;
      case 1: return FaultReadOutcome::Lost;
      default: return FaultReadOutcome::Silent;
    }
  }
};

/// Restores the process-wide default kernel mode even when a test fails.
struct DefaultModeGuard {
  KernelMode saved = SetAssocCache::default_kernel_mode();
  ~DefaultModeGuard() { SetAssocCache::set_default_kernel_mode(saved); }
};

constexpr ReplKind kAllRepls[] = {ReplKind::Lru, ReplKind::Fifo,
                                  ReplKind::Random, ReplKind::Plru,
                                  ReplKind::Srrip};

// ---- direct array equivalence --------------------------------------------

struct ArrayCase {
  ReplKind repl;
  Cycle retention;   ///< 0 = infinite
  bool fault_hooks;
  bool observer;
};

/// Drives the same pseudorandom operation stream (mixed demand accesses,
/// prefetches, bypasses, way-mask restrictions, scrubs, upsets, sweeps and
/// flushes) through a Fast-mode and a Reference-mode array and demands
/// bit-identical outcomes at every step and in the final state.
void run_array_case(const ArrayCase& c) {
  CacheConfig cfg;
  cfg.name = "equiv";
  cfg.size_bytes = 64ull << 10;
  cfg.assoc = 8;
  cfg.repl = c.repl;

  SetAssocCache fast(cfg, /*seed=*/99);
  SetAssocCache ref(cfg, /*seed=*/99);
  fast.set_kernel_mode(KernelMode::Fast);
  ref.set_kernel_mode(KernelMode::Reference);

  StubHooks hooks;  // stateless: safe to share
  if (c.fault_hooks) {
    fast.set_fault_hooks(&hooks);
    ref.set_fault_hooks(&hooks);
  }
  if (c.retention != 0) {
    fast.set_retention_period(c.retention);
    ref.set_retention_period(c.retention);
  }
  std::vector<EvictionEvent> fast_ev, ref_ev;
  if (c.observer) {
    fast.add_eviction_observer(
        [&](const EvictionEvent& e) { fast_ev.push_back(e); });
    ref.add_eviction_observer(
        [&](const EvictionEvent& e) { ref_ev.push_back(e); });
  }

  // The fast instance must actually be running a specialized kernel.
  EXPECT_NE(fast.kernel_name(), "reference") << fast.kernel_name();
  EXPECT_EQ(ref.kernel_name(), "reference");

  Rng rng(0xC0FFEEull + static_cast<std::uint64_t>(c.repl) * 1000 +
          c.retention + (c.fault_hooks ? 7 : 0) + (c.observer ? 13 : 0));
  const WayMask full = full_way_mask(cfg.assoc);
  Cycle now = 0;
  for (int i = 0; i < 30'000; ++i) {
    now += rng.range(1, 40);
    // A hot footprint close to capacity plus a long uniform tail, split
    // user/kernel so owner-mode paths light up.
    const bool kernel = rng.chance(0.35);
    Addr line = rng.chance(0.8) ? rng.below(1200) * kLineSize
                                : rng.below(1u << 18) * kLineSize;
    if (kernel) line += kKernelSpaceBase;
    const AccessType type = rng.chance(0.3)    ? AccessType::Write
                            : rng.chance(0.25) ? AccessType::InstFetch
                                               : AccessType::Read;
    const Mode mode = kernel ? Mode::Kernel : Mode::User;
    // Occasionally restrict the way mask the way the partitioned /
    // dynamic designs do.
    WayMask allowed = full;
    if (rng.chance(0.25))
      allowed = way_range_mask(static_cast<std::uint32_t>(rng.below(4)),
                               static_cast<std::uint32_t>(rng.range(2, 4)));
    const bool prefetch = rng.chance(0.05);
    const bool no_alloc = !prefetch && rng.chance(0.05);

    const AccessResult ra =
        fast.access(line, type, mode, now, allowed, prefetch, no_alloc);
    const AccessResult rb =
        ref.access(line, type, mode, now, allowed, prefetch, no_alloc);
    expect_result_identical(ra, rb);

    // Interleave the cold-path mutators both kernels share.
    if (rng.chance(0.01)) {
      const auto set = static_cast<std::uint32_t>(rng.below(fast.num_sets()));
      const auto way = static_cast<std::uint32_t>(rng.below(cfg.assoc));
      EXPECT_EQ(fast.refresh_block(set, way, now),
                ref.refresh_block(set, way, now));
    }
    if (c.fault_hooks && rng.chance(0.005)) {
      const auto set = static_cast<std::uint32_t>(rng.below(fast.num_sets()));
      const auto way = static_cast<std::uint32_t>(rng.below(cfg.assoc));
      const auto bits = static_cast<std::uint32_t>(rng.range(1, 3));
      EXPECT_EQ(fast.corrupt_block(set, way, bits),
                ref.corrupt_block(set, way, bits));
    }
    if (c.retention != 0 && rng.chance(0.002)) {
      EXPECT_EQ(fast.expire_sweep(now), ref.expire_sweep(now));
    }
    if (rng.chance(0.001)) {
      const WayMask flush = way_bit(static_cast<std::uint32_t>(
          rng.below(cfg.assoc)));
      EXPECT_EQ(fast.invalidate_ways(flush), ref.invalidate_ways(flush));
    }
    if (rng.chance(0.01)) {
      bool da = false, db = false;
      EXPECT_EQ(fast.invalidate_line(line, &da),
                ref.invalidate_line(line, &db));
      EXPECT_EQ(da, db);
    }
  }

  expect_stats_identical(fast.stats(), ref.stats(), "final stats");
  expect_wear_identical(fast.wear_summary(), ref.wear_summary(),
                        "final wear");
  EXPECT_EQ(fast.location_writes(), ref.location_writes());
  EXPECT_EQ(fast.occupancy(full, now), ref.occupancy(full, now));
  EXPECT_EQ(fast.dirty_occupancy(full, now), ref.dirty_occupancy(full, now));
  expect_blocks_identical(fast, ref);

  if (c.observer) {
    ASSERT_EQ(fast_ev.size(), ref_ev.size());
    for (std::size_t i = 0; i < fast_ev.size(); ++i) {
      EXPECT_FIELD_EQ(fast_ev[i], ref_ev[i], line) << " event " << i;
      EXPECT_FIELD_EQ(fast_ev[i], ref_ev[i], owner) << " event " << i;
      EXPECT_FIELD_EQ(fast_ev[i], ref_ev[i], fill_cycle) << " event " << i;
      EXPECT_FIELD_EQ(fast_ev[i], ref_ev[i], last_access) << " event " << i;
      EXPECT_FIELD_EQ(fast_ev[i], ref_ev[i], evict_cycle) << " event " << i;
      EXPECT_FIELD_EQ(fast_ev[i], ref_ev[i], dirty) << " event " << i;
      EXPECT_FIELD_EQ(fast_ev[i], ref_ev[i], access_count) << " event " << i;
    }
  }
}

class ArrayEquiv : public ::testing::TestWithParam<ReplKind> {};

TEST_P(ArrayEquiv, PlainArray) {
  run_array_case({GetParam(), 0, false, false});
}

TEST_P(ArrayEquiv, WithRetention) {
  run_array_case({GetParam(), 5'000, false, false});
}

TEST_P(ArrayEquiv, WithFaultHooks) {
  run_array_case({GetParam(), 0, true, false});
}

TEST_P(ArrayEquiv, WithRetentionAndFaults) {
  run_array_case({GetParam(), 5'000, true, false});
}

TEST_P(ArrayEquiv, WithObservers) {
  run_array_case({GetParam(), 5'000, true, true});
}

INSTANTIATE_TEST_SUITE_P(AllRepls, ArrayEquiv,
                         ::testing::ValuesIn(kAllRepls),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- kernel selection / dispatch table -----------------------------------

TEST(KernelDispatch, FastIsTheDefault) {
  SetAssocCache c(CacheConfig{});
  EXPECT_EQ(c.kernel_mode(), KernelMode::Fast);
  EXPECT_NE(c.kernel_name(), "reference");
}

TEST(KernelDispatch, NamesTrackPolicyAndFeatures) {
  CacheConfig cfg;
  cfg.size_bytes = 64ull << 10;
  cfg.assoc = 8;
  for (ReplKind k : kAllRepls) {
    cfg.repl = k;
    SetAssocCache c(cfg);
    EXPECT_NE(c.kernel_name().find("fast/"), std::string::npos)
        << c.kernel_name();
    // Feature toggles must re-select the kernel.
    c.set_retention_period(1000);
    EXPECT_NE(c.kernel_name().find("retention"), std::string::npos)
        << c.kernel_name();
    c.set_kernel_mode(KernelMode::Reference);
    EXPECT_EQ(c.kernel_name(), "reference");
    c.set_kernel_mode(KernelMode::Fast);
    EXPECT_NE(c.kernel_name(), "reference");
  }
}

TEST(KernelDispatch, RetentionSpecializationIsSticky) {
  // Once a nonzero retention period existed, blocks may carry deadlines, so
  // resetting the period to 0 must NOT re-select the retention-free kernel.
  CacheConfig cfg;
  cfg.size_bytes = 16ull << 10;
  cfg.assoc = 4;
  SetAssocCache fast(cfg), ref(cfg);
  fast.set_kernel_mode(KernelMode::Fast);
  ref.set_kernel_mode(KernelMode::Reference);
  for (SetAssocCache* c : {&fast, &ref}) {
    c->set_retention_period(100);
    c->access(0x1000, AccessType::Write, Mode::User, 10);
    c->set_retention_period(0);
  }
  EXPECT_NE(fast.kernel_name().find("retention"), std::string::npos)
      << fast.kernel_name();
  // The stale deadline must still expire the block in both kernels.
  EXPECT_FALSE(fast.contains(0x1000, 500));
  EXPECT_FALSE(ref.contains(0x1000, 500));
  const AccessResult a =
      fast.access(0x1000, AccessType::Read, Mode::User, 500);
  const AccessResult b = ref.access(0x1000, AccessType::Read, Mode::User, 500);
  expect_result_identical(a, b);
  EXPECT_TRUE(a.target_expired);
}

TEST(KernelDispatch, ProcessDefaultAppliesToNewArrays) {
  DefaultModeGuard guard;
  SetAssocCache::set_default_kernel_mode(KernelMode::Reference);
  SetAssocCache c(CacheConfig{});
  EXPECT_EQ(c.kernel_mode(), KernelMode::Reference);
  EXPECT_EQ(c.kernel_name(), "reference");
  SetAssocCache::set_default_kernel_mode(KernelMode::Fast);
  SetAssocCache d(CacheConfig{});
  EXPECT_EQ(d.kernel_mode(), KernelMode::Fast);
}

// ---- scheme-level equivalence --------------------------------------------

/// Every scheme the paper evaluates, simulated end-to-end twice — all
/// arrays on the fast kernels vs. all arrays on the reference kernel — must
/// produce bit-identical SimResults (stats, energy, CPI, wear-driven
/// counters), for every replacement policy and with fault injection on and
/// off.
class SchemeEquiv : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new Trace(generate_app_trace(AppId::Browser, 40'000, 7));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static void expect_sim_identical(const SimResult& a, const SimResult& b,
                                   const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_FIELD_EQ(a, b, records);
    EXPECT_FIELD_EQ(a, b, cycles);
    EXPECT_FIELD_EQ(a, b, cpi);
    expect_stats_identical(a.l1i, b.l1i, what + "/l1i");
    expect_stats_identical(a.l1d, b.l1d, what + "/l1d");
    expect_stats_identical(a.l2, b.l2, what + "/l2");
    expect_energy_identical(a.l2_energy, b.l2_energy, what + "/energy");
    EXPECT_FIELD_EQ(a, b, l1_energy_nj);
    EXPECT_FIELD_EQ(a, b, l2_avg_enabled_bytes);
    EXPECT_FIELD_EQ(a, b, l2_quarantined_ways);
    EXPECT_FIELD_EQ(a, b, stall_l2_hit_cycles);
    EXPECT_FIELD_EQ(a, b, stall_l2_miss_cycles);
    EXPECT_FIELD_EQ(a, b, prefetches_issued);
  }

  static void run_scheme(SchemeKind kind, ReplKind repl, bool fault) {
    DefaultModeGuard guard;
    SchemeParams p;
    p.repl = repl;
    if (fault) p.fault = FaultConfig::from_rate(2e-3);

    SetAssocCache::set_default_kernel_mode(KernelMode::Fast);
    const SimResult fast_res = simulate(*trace_, build_scheme(kind, p));
    SetAssocCache::set_default_kernel_mode(KernelMode::Reference);
    const SimResult ref_res = simulate(*trace_, build_scheme(kind, p));

    expect_sim_identical(fast_res, ref_res,
                         std::string(scheme_name(kind)) + "/" +
                             std::string(to_string(repl)) +
                             (fault ? "/fault" : ""));
  }

  static Trace* trace_;
};

Trace* SchemeEquiv::trace_ = nullptr;

TEST_F(SchemeEquiv, AllSchemesAllReplsFaultFree) {
  for (SchemeKind kind :
       {SchemeKind::BaselineSram, SchemeKind::ShrunkSram,
        SchemeKind::SharedStt, SchemeKind::DrowsySram, SchemeKind::VictimSram,
        SchemeKind::StaticPartSram, SchemeKind::StaticPartMrstt,
        SchemeKind::DynamicSram, SchemeKind::DynamicStt}) {
    for (ReplKind repl : kAllRepls) run_scheme(kind, repl, false);
  }
}

TEST_F(SchemeEquiv, FaultInjectedSchemes) {
  // Fault injection is wired into the SharedL2-array schemes; partitioned
  // designs seed one injector per segment. LRU (the paper's config) plus
  // SRRIP (the most stateful alternative) cover the hook interleavings.
  for (SchemeKind kind :
       {SchemeKind::BaselineSram, SchemeKind::SharedStt,
        SchemeKind::StaticPartMrstt, SchemeKind::DynamicStt}) {
    for (ReplKind repl : {ReplKind::Lru, ReplKind::Srrip})
      run_scheme(kind, repl, true);
  }
}

// ---- instrumentation must not perturb results ----------------------------

TEST_F(SchemeEquiv, TelemetrySamplerCausesNoStatDrift) {
  // The simulate() demand loop is split into an instrumented and a plain
  // variant; both must retire the exact same state. Run the same scheme
  // with a sampling telemetry session, with a zero-interval session, and
  // with none at all — three different loop selections, one result.
  for (SchemeKind kind :
       {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt,
        SchemeKind::DynamicStt}) {
    SchemeParams p;
    const SimResult bare = simulate(*trace_, build_scheme(kind, p));

    Telemetry sampling;
    sampling.set_sample_interval(512);
    SimOptions with_sampler;
    with_sampler.telemetry = &sampling;
    const SimResult instrumented =
        simulate(*trace_, build_scheme(kind, p), with_sampler);
    EXPECT_GT(sampling.epochs().size(), 0u);

    Telemetry idle;  // attached but never sampling → plain loop
    SimOptions with_idle;
    with_idle.telemetry = &idle;
    const SimResult attached =
        simulate(*trace_, build_scheme(kind, p), with_idle);

    expect_sim_identical(bare, instrumented,
                         std::string(scheme_name(kind)) + "/sampler");
    expect_sim_identical(bare, attached,
                         std::string(scheme_name(kind)) + "/attached");
  }
}

}  // namespace
}  // namespace mobcache
