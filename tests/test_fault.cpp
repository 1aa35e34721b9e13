#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "core/shared_l2.hpp"
#include "energy/refresh.hpp"
#include "expect_fields.hpp"
#include "fault/fault_injector.hpp"
#include "fault/repair_controller.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

// ---- ECC decode table ----------------------------------------------------

TEST(EccModel, NoneIsAlwaysSilent) {
  EccModel m(EccKind::None);
  for (std::uint32_t bits : {1u, 2u, 3u, 8u})
    EXPECT_EQ(m.evaluate(bits), FaultReadOutcome::Silent) << bits;
  EXPECT_EQ(m.correction_latency(), 0u);
  EXPECT_EQ(m.correction_energy_nj(), 0.0);
}

TEST(EccModel, ParityDetectsOddCounts) {
  EccModel m(EccKind::Parity);
  EXPECT_EQ(m.evaluate(1), FaultReadOutcome::Lost);
  EXPECT_EQ(m.evaluate(2), FaultReadOutcome::Silent);
  EXPECT_EQ(m.evaluate(3), FaultReadOutcome::Lost);
  EXPECT_EQ(m.evaluate(4), FaultReadOutcome::Silent);
}

TEST(EccModel, SecdedCorrectsOneDetectsTwo) {
  EccModel m(EccKind::Secded);
  EXPECT_EQ(m.evaluate(1), FaultReadOutcome::Corrected);
  EXPECT_EQ(m.evaluate(2), FaultReadOutcome::Lost);
  EXPECT_EQ(m.evaluate(3), FaultReadOutcome::Silent);
  EXPECT_GT(m.correction_latency(), 0u);
  EXPECT_GT(m.correction_energy_nj(), 0.0);
}

TEST(EccModel, DectedCorrectsTwoDetectsThree) {
  EccModel m(EccKind::Dected);
  EXPECT_EQ(m.evaluate(1), FaultReadOutcome::Corrected);
  EXPECT_EQ(m.evaluate(2), FaultReadOutcome::Corrected);
  EXPECT_EQ(m.evaluate(3), FaultReadOutcome::Lost);
  EXPECT_EQ(m.evaluate(4), FaultReadOutcome::Silent);
  EXPECT_GT(m.correction_latency(), EccModel(EccKind::Secded).correction_latency());
}

TEST(EccModel, ParseRoundtrips) {
  for (EccKind k : {EccKind::None, EccKind::Parity, EccKind::Secded,
                    EccKind::Dected}) {
    const auto parsed = parse_ecc_kind(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_ecc_kind("chipkill").has_value());
}

// ---- FaultConfig ---------------------------------------------------------

TEST(FaultConfig, DefaultAndRateZeroAreDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  EXPECT_FALSE(FaultConfig::from_rate(0.0).enabled());
}

TEST(FaultConfig, FromRateScalesAllMechanisms) {
  const FaultConfig f = FaultConfig::from_rate(0.01, EccKind::Dected, 5, 42);
  EXPECT_TRUE(f.enabled());
  EXPECT_DOUBLE_EQ(f.write_fault_prob, 0.01);
  EXPECT_GT(f.transient_per_mcycle, 0.0);
  EXPECT_GT(f.retention_sigma, 0.0);
  EXPECT_EQ(f.ecc, EccKind::Dected);
  EXPECT_EQ(f.way_disable_threshold, 5u);
  EXPECT_EQ(f.seed, 42u);
}

// ---- RepairController ----------------------------------------------------

TEST(RepairController, ThresholdCrossingQueuesOneQuarantine) {
  RepairController rc(8, 3);
  EXPECT_FALSE(rc.record_fault(2));
  EXPECT_FALSE(rc.record_fault(2));
  EXPECT_TRUE(rc.record_fault(2));  // third fault crosses
  EXPECT_TRUE(rc.has_pending());
  EXPECT_FALSE(rc.record_fault(2));  // past threshold: no re-queue
  EXPECT_EQ(rc.take_pending(), 2u);
  EXPECT_FALSE(rc.has_pending());
  EXPECT_EQ(rc.healthy_ways(), 7u);
  EXPECT_EQ(rc.quarantined_ways(), 1u);
  EXPECT_EQ(rc.healthy_mask() & way_bit(2), 0u);
}

TEST(RepairController, ZeroThresholdNeverQuarantines) {
  RepairController rc(4, 0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(rc.record_fault(1));
  EXPECT_FALSE(rc.has_pending());
  EXPECT_EQ(rc.healthy_ways(), 4u);
}

TEST(RepairController, LastHealthyWaySurvives) {
  RepairController rc(2, 1);
  EXPECT_TRUE(rc.record_fault(0));
  rc.take_pending();
  EXPECT_EQ(rc.healthy_ways(), 1u);
  // Way 1 is the last healthy way: evidence accumulates but no quarantine.
  EXPECT_FALSE(rc.record_fault(1));
  EXPECT_FALSE(rc.record_fault(1));
  EXPECT_EQ(rc.healthy_ways(), 1u);
}

TEST(RepairController, PendingWaysCountAgainstSurvivorBudget) {
  RepairController rc(2, 1);
  EXPECT_TRUE(rc.record_fault(0));
  // Way 0 is pending (not yet drained): quarantining way 1 too would leave
  // nothing, so it must be refused even before take_pending runs.
  EXPECT_FALSE(rc.record_fault(1));
  EXPECT_EQ(rc.take_pending(), 0u);
  EXPECT_EQ(rc.healthy_ways(), 1u);
}

// ---- end-to-end: bit-identity, determinism, degradation ------------------

// Results compare to the bit, energies included, not to a tolerance: the
// fault layer must leave the arithmetic stream untouched when disabled and
// be fully seed-deterministic when enabled.

TEST(FaultEndToEnd, RateZeroIsBitIdenticalToDefaultBuild) {
  const Trace trace = generate_app_trace(AppId::Browser, 120'000, 7);
  SchemeParams zero;
  zero.fault = FaultConfig::from_rate(0.0, EccKind::Dected, 4, 99);
  for (SchemeKind k : headline_schemes()) {
    const SimResult plain = simulate(trace, build_scheme(k));
    const SimResult zeroed = simulate(trace, build_scheme(k, zero));
    expect_fields_equal(plain, zeroed, scheme_name(k));
  }
}

TEST(FaultEndToEnd, RateZeroBuildsNoInjector) {
  SchemeParams zero;
  zero.fault = FaultConfig::from_rate(0.0);
  const auto l2 = build_scheme(SchemeKind::SharedStt, zero);
  const auto* shared = dynamic_cast<const SharedL2*>(l2.get());
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->fault_injector(), nullptr);
}

/// The fault and way-quarantine records of the run's JSONL trace, for
/// exact comparison.
std::string run_and_log_events(SchemeKind kind, const SchemeParams& params,
                               const Trace& trace, SimResult* out) {
  Telemetry tel;
  TraceSink sink(TraceFormat::Jsonl);
  sink.attach(tel);
  SimOptions opts;
  opts.telemetry = &tel;
  *out = simulate(trace, build_scheme(kind, params), opts);
  std::istringstream records(sink.render());
  std::string log, line;
  while (std::getline(records, line)) {
    if (line.starts_with("{\"type\":\"fault\",") ||
        line.starts_with("{\"type\":\"way-quarantine\",")) {
      log += line + '\n';
    }
  }
  return log;
}

TEST(FaultEndToEnd, SameSeedSameConfigIsFullyDeterministic) {
  const Trace trace = generate_app_trace(AppId::Game, 150'000, 11);
  SchemeParams p;
  p.fault = FaultConfig::from_rate(0.01, EccKind::Secded, 3, 77);
  for (SchemeKind k : {SchemeKind::SharedStt, SchemeKind::StaticPartMrstt,
                       SchemeKind::DynamicStt}) {
    SimResult a, b;
    const std::string log_a = run_and_log_events(k, p, trace, &a);
    const std::string log_b = run_and_log_events(k, p, trace, &b);
    expect_fields_equal(a, b, scheme_name(k));
    EXPECT_EQ(log_a, log_b) << scheme_name(k);
    EXPECT_FALSE(log_a.empty()) << scheme_name(k)
                                << ": rate 0.01 should produce events";
  }
}

TEST(FaultEndToEnd, DifferentSeedsDiverge) {
  const Trace trace = generate_app_trace(AppId::Game, 120'000, 11);
  SchemeParams a, b;
  a.fault = FaultConfig::from_rate(0.01, EccKind::Secded, 0, 1);
  b.fault = a.fault;
  b.fault.seed = 2;
  SimResult ra, rb;
  const std::string log_a =
      run_and_log_events(SchemeKind::SharedStt, a, trace, &ra);
  const std::string log_b =
      run_and_log_events(SchemeKind::SharedStt, b, trace, &rb);
  EXPECT_NE(log_a, log_b);
}

TEST(FaultEndToEnd, HighRateDegradesGracefullyWithQuarantine) {
  const Trace trace = generate_app_trace(AppId::Game, 150'000, 13);
  SchemeParams p;
  p.fault = FaultConfig::from_rate(0.05, EccKind::Secded, 2, 5);
  for (SchemeKind k : {SchemeKind::SharedStt, SchemeKind::StaticPartMrstt,
                       SchemeKind::DynamicStt}) {
    const SimResult r = simulate(trace, build_scheme(k, p));
    EXPECT_GT(r.l2_quarantined_ways, 0u) << scheme_name(k);
    EXPECT_GT(r.l2.write_faults, 0u) << scheme_name(k);
    EXPECT_GT(r.l2.ecc_corrections, 0u) << scheme_name(k);
    EXPECT_LE(r.l2_miss_rate(), 1.0) << scheme_name(k);
    EXPECT_GT(r.cycles, 0u) << scheme_name(k);
    // Way gating shows up in the powered-capacity integral.
    EXPECT_LT(r.l2_avg_enabled_bytes,
              static_cast<double>(r.l2_capacity_bytes) + 1.0)
        << scheme_name(k);
  }
}

TEST(FaultEndToEnd, EccTiersTradeLossesForCorrections) {
  const Trace trace = generate_app_trace(AppId::Browser, 120'000, 17);
  SchemeParams none, secded;
  none.fault = FaultConfig::from_rate(0.02, EccKind::None, 0, 3);
  secded.fault = FaultConfig::from_rate(0.02, EccKind::Secded, 0, 3);
  const SimResult rn =
      simulate(trace, build_scheme(SchemeKind::SharedStt, none));
  const SimResult rs =
      simulate(trace, build_scheme(SchemeKind::SharedStt, secded));
  // Unprotected arrays corrupt silently; SECDED converts the bulk of those
  // into corrections (plus a few detected losses).
  EXPECT_GT(rn.l2.silent_faults, 0u);
  EXPECT_EQ(rn.l2.ecc_corrections, 0u);
  EXPECT_GT(rs.l2.ecc_corrections, 0u);
  EXPECT_GT(rs.l2_energy.ecc_nj, 0.0);
  EXPECT_EQ(rn.l2_energy.ecc_nj, 0.0);
  EXPECT_LT(rs.l2.silent_faults, rn.l2.silent_faults);
}

TEST(FaultScrub, ScrubPassRepairsCorrectableBlocksAndDropsLostOnes) {
  CacheConfig cc;
  cc.name = "stt";
  cc.size_bytes = 16ull << 10;
  cc.assoc = 4;
  SetAssocCache cache(cc);
  cache.set_retention_period(1000);

  FaultConfig fc;
  fc.write_fault_prob = 0.5;  // every other fill leaves bad bits
  fc.ecc = EccKind::Secded;
  fc.seed = 9;
  FaultInjector inj(fc, cache);

  RefreshController ctl(RefreshPolicy::ScrubAll, 500);
  TechParams tech = make_sttram(cc.size_bytes, RetentionClass::Lo);
  EnergyAccountant acct;
  for (std::uint64_t i = 0; i < 64; ++i)
    cache.access(i * kLineSize, AccessType::Write, Mode::User, 0);
  ASSERT_GT(cache.stats().write_faults, 0u);

  const auto r = ctl.tick(cache, 600, tech, acct);
  // SECDED heals 1-bit blocks in place; >=2-bit blocks are detected and
  // dropped (no rewrite charged), the rest are refreshed faithfully.
  EXPECT_GT(r.repaired, 0u);
  EXPECT_EQ(cache.stats().scrub_repairs, r.repaired);
  EXPECT_EQ(r.refreshed + r.fault_lost, 64u);
  // (The rewrite itself is a stochastic STT-RAM write and may leave fresh
  // faults — a scrub heals what it finds, it does not promise perfection.)
}

}  // namespace
}  // namespace mobcache
