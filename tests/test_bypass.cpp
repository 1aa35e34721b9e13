#include "cache/bypass_predictor.hpp"

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "core/shared_l2.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

TEST(BypassPredictor, DisabledNeverBypasses) {
  StreamBypassPredictor p(/*enabled=*/false);
  for (int i = 0; i < 10; ++i) p.train_eviction(0x1000, /*was_reused=*/false);
  EXPECT_FALSE(p.should_bypass(0x1000));
}

TEST(BypassPredictor, NewRegionsInstallByDefault) {
  StreamBypassPredictor p(/*enabled=*/true);
  EXPECT_FALSE(p.should_bypass(0x5000));
}

TEST(BypassPredictor, DeadEvictionsTrainTowardBypass) {
  StreamBypassPredictor p(/*enabled=*/true);
  const Addr line = 0x9000;
  EXPECT_FALSE(p.should_bypass(line));
  p.train_eviction(line, false);  // counter 2 → 1
  EXPECT_FALSE(p.should_bypass(line));
  p.train_eviction(line, false);  // 1 → 0
  EXPECT_TRUE(p.should_bypass(line));
}

TEST(BypassPredictor, ReuseRecoversInstallDecision) {
  StreamBypassPredictor p(/*enabled=*/true);
  const Addr line = 0x9000;
  p.train_eviction(line, false);
  p.train_eviction(line, false);
  ASSERT_TRUE(p.should_bypass(line));
  p.train_reuse(line);
  EXPECT_FALSE(p.should_bypass(line));
}

TEST(BypassPredictor, RegionsAreIndependent) {
  StreamBypassPredictor p(/*enabled=*/true);
  // Two lines in the same 4 KB region share a counter; a distant region
  // does not (modulo the tagless table's rare aliasing, avoided here).
  p.train_eviction(0x0000, false);
  p.train_eviction(0x0FC0, false);  // same region
  EXPECT_TRUE(p.should_bypass(0x0040));
  // A region that maps to a different table slot is unaffected (the table
  // is tagless, so pick one that does not alias slot 0).
  EXPECT_FALSE(p.should_bypass(0x41000));
}

TEST(BypassL2, StreamingFillsGetBypassed) {
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 256ull << 10;
  c.cache.assoc = 8;
  c.tech = TechKind::SttRam;
  c.retention = RetentionClass::Hi;
  c.bypass = true;
  SharedL2 l2(c);

  // A pure stream: every line touched once. After the predictor trains on
  // dead evictions, later fills bypass and the write count flattens.
  Cycle now = 0;
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    l2.access(i * kLineSize, AccessType::Read, Mode::User, now);
    now += 10;
  }
  EXPECT_GT(l2.bypassed_fills(), 10'000u)
      << "a long stream must train the bypass";
  // Bypassed fills save array writes: writes ≪ misses.
  const double writes = l2.energy().write_nj / l2.tech().write_energy_nj;
  EXPECT_LT(writes, static_cast<double>(l2.aggregate_stats().total_misses()) *
                        0.7);
}

TEST(BypassL2, HotDataStaysCached) {
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 256ull << 10;
  c.cache.assoc = 8;
  c.tech = TechKind::SttRam;
  c.bypass = true;
  SharedL2 l2(c);

  // A small hot loop: after the first pass everything hits; the predictor
  // must never start bypassing it.
  Cycle now = 0;
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      l2.access(i * kLineSize, AccessType::Read, Mode::User, now);
      now += 10;
    }
  }
  EXPECT_EQ(l2.bypassed_fills(), 0u);
  EXPECT_GT(l2.aggregate_stats().miss_rate() < 0.05, 0);
}

TEST(BypassL2, EndToEndSavesWriteEnergyOnDeadStreams) {
  // A genuinely dead stream: one Stream phase over a 32 MB arena that never
  // wraps within the trace, so no fill is ever re-referenced at L2.
  AppSpec spec = make_app(AppId::Launcher);
  spec.phases.resize(1);
  spec.phases[0].pattern = AccessPattern::Stream;
  spec.phases[0].ws_bytes = 32ull << 20;
  spec.phases[0].mean_phase_len = 10'000'000;
  spec.phases[0].services.clear();
  spec.transitions.clear();
  GeneratorConfig gc;
  gc.target_accesses = 250'000;
  gc.seed = 9;
  const Trace t = generate_trace(spec, gc);

  SchemeParams off;
  const SimResult r_off = simulate(t, build_scheme(SchemeKind::SharedStt, off));
  SchemeParams onp;
  onp.stt_write_bypass = true;
  const SimResult r_on = simulate(t, build_scheme(SchemeKind::SharedStt, onp));

  EXPECT_LT(r_on.l2_energy.write_nj, r_off.l2_energy.write_nj * 0.6)
      << "bypass must cut STT write energy on dead streams";
  // A dead stream misses everywhere anyway: time must not regress.
  EXPECT_LE(r_on.cycles, r_off.cycles * 1.01);
}

TEST(BypassL2, OffByDefaultEverywhere) {
  const SchemeParams defaults;
  EXPECT_FALSE(defaults.stt_write_bypass);
  // And the default factory wires predictors disabled: a streaming run
  // through default Shared-STT must report zero bypasses.
  SharedL2Config c;
  c.cache.name = "L2";
  c.cache.size_bytes = 128ull << 10;
  c.cache.assoc = 8;
  c.tech = TechKind::SttRam;
  SharedL2 l2(c);
  for (std::uint64_t i = 0; i < 10'000; ++i)
    l2.access(i * kLineSize, AccessType::Read, Mode::User, i * 10);
  EXPECT_EQ(l2.bypassed_fills(), 0u);
}

}  // namespace
}  // namespace mobcache
