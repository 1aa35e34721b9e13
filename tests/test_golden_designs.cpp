/// \file test_golden_designs.cpp
/// Full-precision pins for the L2 design layer.
///
/// The committed experiment outputs (tests/golden/) print 3-9 digits and,
/// at their short trace length, never make a SharedL2-based design refresh
/// a block. These pins hash whole result records (17 significant digits)
/// on a trace long and hot enough that every maintenance path runs: at
/// 358 K the Lo retention class lasts about 1.65 ms, so blocks expire and
/// get scrubbed inside the trace. Each case also asserts that it reaches
/// the path it is there to pin, so a pin cannot silently go vacuous.
///
/// A mismatch prints the case name and the hash it computed. Change a pin
/// only when the record bytes are meant to change.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "core/multicore_l2.hpp"
#include "core/scheme.hpp"
#include "exp/result_store.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "sim/multicore.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// clang-format off
const std::map<std::string, std::uint64_t, std::less<>> kPins = {
    {"bypass/Base-SRAM-2MB", 0xd4cd2794d32343caull},
    {"bypass/DP-SRAM", 0xe75cfab47c159812ull},
    {"bypass/DP-STT", 0x1215b88fc2c544c9ull},
    {"bypass/Drowsy-SRAM-2MB", 0xb2c7f27daa290503ull},
    {"bypass/SP-MRSTT", 0xb4142d25d83d0a44ull},
    {"bypass/SP-SRAM", 0xf5b279c8bbf02660ull},
    {"bypass/Shared-STT-2MB", 0xcf7808dd8d774fd3ull},
    {"bypass/Shrunk-SRAM-512KB", 0x7a74e9be9daccde9ull},
    {"bypass/Victim-SRAM-2MB", 0x9ab88bb0fd41b49cull},
    {"defaults/Base-SRAM-2MB", 0xd4cd2794d32343caull},
    {"defaults/DP-SRAM", 0xe75cfab47c159812ull},
    {"defaults/DP-STT", 0x1215b88fc2c544c9ull},
    {"defaults/Drowsy-SRAM-2MB", 0xb2c7f27daa290503ull},
    {"defaults/SP-MRSTT", 0xd738014e44e003e4ull},
    {"defaults/SP-SRAM", 0xf5b279c8bbf02660ull},
    {"defaults/Shared-STT-2MB", 0xcf7808dd8d774fd3ull},
    {"defaults/Shrunk-SRAM-512KB", 0x7a74e9be9daccde9ull},
    {"defaults/Victim-SRAM-2MB", 0x9ab88bb0fd41b49cull},
    {"faults+prefetch/Base-SRAM-2MB", 0x4ca738bf8a8c57a9ull},
    {"faults+prefetch/DP-SRAM", 0x9989ce68009e78dfull},
    {"faults+prefetch/DP-STT", 0xe1743dd98f0d702cull},
    {"faults+prefetch/Drowsy-SRAM-2MB", 0xe9ea499761e2feaeull},
    {"faults+prefetch/SP-MRSTT", 0x498880aa8ae7a46full},
    {"faults+prefetch/SP-SRAM", 0xcd0a0d586ca5ebdcull},
    {"faults+prefetch/Shared-STT-2MB", 0xdb4981958bd7036bull},
    {"faults+prefetch/Shrunk-SRAM-512KB", 0xa39c94c4141a7f78ull},
    {"faults+prefetch/Victim-SRAM-2MB", 0x41d86682f1310509ull},
    {"faults/Base-SRAM-2MB", 0xc51e37ee25ad972aull},
    {"faults/DP-SRAM", 0x749b56cddeef227cull},
    {"faults/DP-STT", 0xa0fb0ceb6c65e00eull},
    {"faults/Drowsy-SRAM-2MB", 0xb2c7f27daa290503ull},
    {"faults/SP-MRSTT", 0xb8357c845890e11aull},
    {"faults/SP-SRAM", 0x4eeef23e3fc9f1c6ull},
    {"faults/Shared-STT-2MB", 0x9bcec51005f1c2caull},
    {"faults/Shrunk-SRAM-512KB", 0x88c052a520e8b5b4ull},
    {"faults/Victim-SRAM-2MB", 0x9ab88bb0fd41b49cull},
    {"lo+scrub-all/Base-SRAM-2MB", 0xd4cd2794d32343caull},
    {"lo+scrub-all/DP-SRAM", 0xe75cfab47c159812ull},
    {"lo+scrub-all/DP-STT", 0x84285dedc6ca3ab9ull},
    {"lo+scrub-all/Drowsy-SRAM-2MB", 0xb2c7f27daa290503ull},
    {"lo+scrub-all/SP-MRSTT", 0xe55fd0bf1d4ac874ull},
    {"lo+scrub-all/SP-SRAM", 0xf5b279c8bbf02660ull},
    {"lo+scrub-all/Shared-STT-2MB", 0xcf7808dd8d774fd3ull},
    {"lo+scrub-all/Shrunk-SRAM-512KB", 0x7a74e9be9daccde9ull},
    {"lo+scrub-all/Victim-SRAM-2MB", 0x9ab88bb0fd41b49cull},
    {"metrics+faults/DP-STT", 0xbec80864571f2a3dull},
    {"metrics+faults/SP-MRSTT", 0x760aec54c01f39deull},
    {"multicore/2-core", 0xa2d43c10da177a7cull},
    {"prefetch/Base-SRAM-2MB", 0x1e5c6eb536022391ull},
    {"prefetch/DP-SRAM", 0x2466208e136e90aeull},
    {"prefetch/DP-STT", 0x8c02a75c8f4aeea5ull},
    {"prefetch/Drowsy-SRAM-2MB", 0xe9ea499761e2feaeull},
    {"prefetch/SP-MRSTT", 0x93595b6d368ddaaeull},
    {"prefetch/SP-SRAM", 0xda78280c4929a76dull},
    {"prefetch/Shared-STT-2MB", 0x30e97931e96b0180ull},
    {"prefetch/Shrunk-SRAM-512KB", 0x88f38cc4520ec9ccull},
    {"prefetch/Victim-SRAM-2MB", 0x41d86682f1310509ull},
    {"wear-rotation/SP-MRSTT", 0x818e50d0dbf66b77ull},
};
// clang-format on

void expect_pin(const std::string& name, std::string_view text) {
  const std::uint64_t got = fnv1a(text);
  const auto it = kPins.find(name);
  char line[128];
  std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},", name.c_str(),
                static_cast<unsigned long long>(got));
  ASSERT_TRUE(it != kPins.end()) << "no pin for " << line;
  EXPECT_EQ(it->second, got) << "pin moved: " << line;
}

TechnologyConfig hot() {
  TechnologyConfig t;
  t.temperature_k = 358.0;
  return t;
}

const Trace& browser_trace() {
  static const Trace t = generate_app_trace(AppId::Browser, 200'000, 7);
  return t;
}

FaultConfig pin_faults() {
  return FaultConfig::from_rate(5e-3, EccKind::Secded, 4, 11);
}

SimOptions with_prefetch() {
  SimOptions o;
  o.hierarchy.prefetch.enabled = true;
  return o;
}

/// One pinned run: builds `kind` under `p` at 358 K, simulates the Browser
/// trace, pins the record and hands the design back for path assertions.
struct PinnedRun {
  std::unique_ptr<L2Interface> l2;
  SimResult r;
};

PinnedRun run_pinned(const std::string& variant, SchemeKind kind,
                     const SchemeParams& p, const SimOptions& opts = {}) {
  ScopedTechnology scope(hot());
  PinnedRun out{build_scheme(kind, p), {}};
  out.r = simulate(browser_trace(), *out.l2, opts);
  expect_pin(variant + "/" + scheme_name(kind), result_to_record_json(out.r));
  return out;
}

const StaticPartitionedL2& as_sp(const PinnedRun& run) {
  return dynamic_cast<const StaticPartitionedL2&>(*run.l2);
}
const DynamicPartitionedL2& as_dp(const PinnedRun& run) {
  return dynamic_cast<const DynamicPartitionedL2&>(*run.l2);
}

TEST(GoldenDesigns, Defaults) {
  for (SchemeKind k : headline_schemes()) {
    const PinnedRun run = run_pinned("defaults", k, {});
    if (k == SchemeKind::DynamicStt) {
      // The DP scrub path and clean-block expiry both run.
      EXPECT_GT(run.r.l2.refreshes, 0u);
      EXPECT_GT(run.r.l2.expired_blocks, 0u);
      EXPECT_GT(as_dp(run).reconfigurations(), 0u);
    }
    if (k == SchemeKind::StaticPartMrstt) {
      EXPECT_GT(run.r.l2.expired_blocks, 0u);
    }
  }
}

TEST(GoldenDesigns, Faults) {
  SchemeParams p;
  p.fault = pin_faults();
  for (SchemeKind k : headline_schemes()) {
    const PinnedRun run = run_pinned("faults", k, p);
    if (k == SchemeKind::DrowsySram || k == SchemeKind::VictimSram) continue;
    EXPECT_GT(run.r.l2_quarantined_ways, 0u) << scheme_name(k);
    EXPECT_GT(run.r.l2.ecc_corrections, 0u) << scheme_name(k);
  }
}

TEST(GoldenDesigns, Prefetch) {
  for (SchemeKind k : headline_schemes()) {
    const PinnedRun run = run_pinned("prefetch", k, {}, with_prefetch());
    EXPECT_GT(run.r.l2.prefetch_fills, 0u) << scheme_name(k);
  }
}

TEST(GoldenDesigns, FaultsWithPrefetch) {
  SchemeParams p;
  p.fault = pin_faults();
  for (SchemeKind k : headline_schemes()) {
    const PinnedRun run =
        run_pinned("faults+prefetch", k, p, with_prefetch());
    EXPECT_GT(run.r.l2.prefetch_fills, 0u) << scheme_name(k);
    if (k == SchemeKind::DrowsySram || k == SchemeKind::VictimSram) continue;
    EXPECT_GT(run.r.l2.ecc_corrections, 0u) << scheme_name(k);
  }
}

TEST(GoldenDesigns, WriteBypass) {
  SchemeParams p;
  p.stt_write_bypass = true;
  for (SchemeKind k : headline_schemes()) {
    const PinnedRun run = run_pinned("bypass", k, p);
    if (k == SchemeKind::StaticPartMrstt) {
      EXPECT_GT(as_sp(run).segment(Mode::User).bypassed_fills() +
                    as_sp(run).segment(Mode::Kernel).bypassed_fills(),
                0u);
    }
  }
}

TEST(GoldenDesigns, LoRetentionScrubAll) {
  SchemeParams p;
  p.mrstt_user = RetentionClass::Lo;
  p.refresh = RefreshPolicy::ScrubAll;
  for (SchemeKind k : headline_schemes()) {
    const PinnedRun run = run_pinned("lo+scrub-all", k, p);
    if (k == SchemeKind::StaticPartMrstt || k == SchemeKind::DynamicStt) {
      // Both the SharedL2 and the DP scrub paths rewrite blocks.
      EXPECT_GT(run.r.l2.refreshes, 0u) << scheme_name(k);
      EXPECT_GT(run.r.l2_energy.refresh_nj, 0.0) << scheme_name(k);
    }
  }
}

TEST(GoldenDesigns, WearRotation) {
  ScopedTechnology scope(hot());
  const SchemeParams d;
  StaticPartitionConfig c = make_mrstt_config(
      d.sp_user_bytes, d.sp_user_assoc, d.mrstt_user, d.sp_kernel_bytes,
      d.sp_kernel_assoc, d.mrstt_kernel);
  c.user.wear_rotate_writes = c.kernel.wear_rotate_writes = 5000;
  StaticPartitionedL2 l2(c);
  const SimResult r = simulate(browser_trace(), l2);
  expect_pin("wear-rotation/SP-MRSTT", result_to_record_json(r));
  EXPECT_GT(l2.segment(Mode::User).rotations(), 0u);
  EXPECT_GT(l2.segment(Mode::Kernel).rotations(), 0u);
}

TEST(GoldenDesigns, Multicore) {
  ScopedTechnology scope(hot());
  const std::vector<Trace> traces = {
      generate_app_trace(AppId::Browser, 100'000, 7),
      generate_app_trace(AppId::AudioPlayer, 100'000, 7)};
  MulticoreL2Config c;
  c.cache.name = "L2";
  c.cores = 2;
  MulticoreDynamicL2 l2(c);
  const MulticoreResult m = simulate_multicore(traces, l2);

  // Every MulticoreResult field, through the record writer's formatting.
  std::string text;
  for (const CoreResult& core : m.cores) {
    SimResult r;
    r.workload = core.workload;
    r.records = core.records;
    r.cycles = core.cycles;
    r.l1i = core.l1i;
    r.l1d = core.l1d;
    text += result_to_record_json(r);
  }
  SimResult shared;
  shared.scheme = m.scheme;
  shared.cycles = m.makespan;
  shared.l2 = m.l2;
  shared.l2_energy = m.l2_energy;
  shared.l2_capacity_bytes = m.l2_capacity_bytes;
  shared.l2_avg_enabled_bytes = m.l2_avg_enabled_bytes;
  text += result_to_record_json(shared);
  expect_pin("multicore/2-core", text);
  EXPECT_GT(l2.reconfigurations(), 0u);
  EXPECT_GT(m.l2.refreshes, 0u);
}

TEST(GoldenDesigns, TelemetryMetricsUnderFaults) {
  SchemeParams p;
  p.fault = pin_faults();
  for (SchemeKind k : {SchemeKind::DynamicStt, SchemeKind::StaticPartMrstt}) {
    Telemetry tel;
    SimOptions opts;
    opts.telemetry = &tel;
    const PinnedRun run = run_pinned("faults", k, p, opts);
    expect_pin(std::string("metrics+faults/") + scheme_name(k),
               metrics_json_string(tel.metrics()));
  }
}

}  // namespace
}  // namespace mobcache
