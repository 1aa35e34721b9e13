/// \file test_energy_accounting.cpp
/// Reconciliation tests: every nanojoule a design reports must be derivable
/// from its event counters and the technology parameters. These catch
/// double-charging and forgotten events that aggregate "looks reasonable"
/// checks cannot.

#include <gtest/gtest.h>

#include <cmath>

#include "core/scheme.hpp"
#include "core/shared_l2.hpp"
#include "fault/fault_model.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

TEST(EnergyReconcile, SharedSramLeakageExact) {
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 512ull << 10;
  c.cache.assoc = 8;
  SharedL2 l2(c);
  l2.access(0x1000, AccessType::Read, Mode::User, 5);
  l2.finalize(123'456);
  EXPECT_NEAR(l2.energy().leakage_nj, l2.tech().leakage_nj(123'456), 1e-6);
}

TEST(EnergyReconcile, SharedSramDynamicCountsExact) {
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 512ull << 10;
  c.cache.assoc = 8;
  SharedL2 l2(c);

  // 3 misses (each: probe read + fill write + 1 DRAM fetch), then 2 clean
  // read hits, one store hit.
  l2.access(0 * kLineSize, AccessType::Read, Mode::User, 1);
  l2.access(1 * kLineSize, AccessType::Read, Mode::User, 2);
  l2.access(2 * kLineSize, AccessType::Read, Mode::User, 3);
  l2.access(0 * kLineSize, AccessType::Read, Mode::User, 4);
  l2.access(1 * kLineSize, AccessType::Read, Mode::User, 5);
  l2.access(2 * kLineSize, AccessType::Write, Mode::User, 6);

  const TechParams& t = l2.tech();
  const EnergyBreakdown& e = l2.energy();
  EXPECT_NEAR(e.read_nj, (3 + 2) * t.read_energy_nj, 1e-9);
  EXPECT_NEAR(e.write_nj, (3 + 1) * t.write_energy_nj, 1e-9);
  EXPECT_NEAR(e.dram_nj, 3 * technology().dram_access_nj, 1e-9);

  // Finalize flushes the one dirty block (the store-hit line).
  l2.finalize(100);
  EXPECT_NEAR(e.dram_nj, 4 * technology().dram_access_nj, 1e-9);
}

TEST(EnergyReconcile, VictimWritebackChargedOnce) {
  // Direct-mapped cache: a dirty victim must add exactly one DRAM transfer.
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 64ull << 10;
  c.cache.assoc = 1;
  SharedL2 l2(c);
  const std::uint64_t sets = l2.array().num_sets();

  l2.access(0, AccessType::Write, Mode::User, 1);  // miss: 1 dram (fetch)
  l2.access(sets * kLineSize, AccessType::Read, Mode::User, 2);
  // Second access: fetch (1) + dirty victim writeback (1). Total 3.
  EXPECT_NEAR(l2.energy().dram_nj, 3 * technology().dram_access_nj, 1e-9);
}

TEST(EnergyReconcile, SimulatedRunMatchesCounterDerivation) {
  // Whole-pipeline reconciliation for the SRAM baseline on a real trace.
  // Demand L2 accesses from the hierarchy are always reads (write-allocate
  // fetch); Write-type L2 accesses are exactly the L1 castouts. From the
  // counters: reads = demand accesses (every one probes); the DRAM transfer
  // count is bounded by misses (fetches) plus all dirty-block writebacks.
  const Trace t = generate_app_trace(AppId::AudioPlayer, 120'000, 21);
  auto l2 = build_scheme(SchemeKind::BaselineSram);
  const SimResult r = simulate(t, *l2);

  const TechParams tech = make_sram(2ull << 20);
  const CacheStats& s = r.l2;

  // Every demand access costs exactly one probe read; castouts cost none.
  // reads × E_read <= read_nj <= accesses × E_read (castouts are the gap).
  EXPECT_GE(r.l2_energy.read_nj + 1e-6,
            static_cast<double>(s.total_misses()) * tech.read_energy_nj);
  EXPECT_LE(r.l2_energy.read_nj,
            static_cast<double>(s.total_accesses()) * tech.read_energy_nj +
                1e-6);

  // DRAM transfers: at least one per demand miss-fetch, bounded above by
  // misses + every dirty writeback + the final flush of resident dirty
  // blocks (≤ cache lines).
  const double dram_events = r.l2_energy.dram_nj / technology().dram_access_nj;
  EXPECT_LE(dram_events,
            static_cast<double>(s.total_misses() + s.writebacks +
                                s.expired_dirty + (2ull << 20) / kLineSize) +
                0.5);
  EXPECT_GE(dram_events, 0.5 * static_cast<double>(s.total_misses()));
}

TEST(EnergyReconcile, BreakdownAdditivity) {
  for (SchemeKind k : headline_schemes()) {
    const Trace t = generate_app_trace(AppId::Launcher, 60'000, 3);
    const SimResult r = simulate(t, build_scheme(k));
    const EnergyBreakdown& e = r.l2_energy;
    EXPECT_NEAR(e.total_nj(),
                e.leakage_nj + e.read_nj + e.write_nj + e.refresh_nj +
                    e.dram_nj,
                1e-6)
        << scheme_name(k);
    EXPECT_NEAR(e.cache_nj(), e.total_nj() - e.dram_nj, 1e-6)
        << scheme_name(k);
  }
}

TEST(EnergyReconcile, PartitionedLeakageIsSumOfSegments) {
  const Trace t = generate_app_trace(AppId::Email, 60'000, 3);
  StaticPartitionConfig pc;
  pc.user = sram_segment(512ull << 10, 8);
  pc.kernel = sram_segment(256ull << 10, 8);
  StaticPartitionedL2 l2(pc);
  const SimResult r = simulate(t, l2);
  const double expect = make_sram(512ull << 10).leakage_nj(r.cycles) +
                        make_sram(256ull << 10).leakage_nj(r.cycles);
  EXPECT_NEAR(r.l2_energy.leakage_nj, expect, expect * 1e-9);
}

TEST(EnergyReconcile, DynamicLeakageNeverExceedsFullArray) {
  const Trace t = generate_app_trace(AppId::Browser, 100'000, 3);
  const SimResult r = simulate(t, build_scheme(SchemeKind::DynamicStt));
  const double full =
      make_sttram(2ull << 20, RetentionClass::Lo).leakage_nj(r.cycles);
  EXPECT_LE(r.l2_energy.leakage_nj, full * (1 + 1e-9));
  EXPECT_GT(r.l2_energy.leakage_nj, 0.0);
  // And it must equal full leakage × (avg enabled fraction).
  const double frac = r.l2_avg_enabled_bytes / static_cast<double>(2ull << 20);
  EXPECT_NEAR(r.l2_energy.leakage_nj, full * frac, full * 0.02);
}

TEST(EnergyReconcile, EccEnergyMatchesCorrectionsUnderPrefetch) {
  // Every ECC correction the arrays count, prefetch probes included, is
  // charged exactly once.
  SchemeParams p;
  p.fault = FaultConfig::from_rate(5e-3, EccKind::Secded, 4, 11);
  SimOptions opts;
  opts.hierarchy.prefetch = true;
  const double per_correction = EccModel(EccKind::Secded).correction_energy_nj();
  for (AppId app : {AppId::Browser, AppId::Launcher}) {
    const Trace t = generate_app_trace(app, 120'000, 7);
    for (SchemeKind k : headline_schemes()) {
      const SimResult r = simulate(t, build_scheme(k, p), opts);
      EXPECT_EQ(std::llround(r.l2_energy.ecc_nj / per_correction),
                static_cast<long long>(r.l2.ecc_corrections))
          << scheme_name(k) << " on " << t.name();
    }
  }
}

}  // namespace
}  // namespace mobcache
