/// \file test_obs.cpp
/// The observability subsystem: metric registry semantics, telemetry
/// sessions, export sinks, and — most importantly — the guarantee that
/// attaching telemetry never changes simulation results.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/flat_json.hpp"
#include "core/dynamic_partitioned_l2.hpp"
#include "core/scheme.hpp"
#include "expect_fields.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "sim/simulator.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricRegistry, HandlesAreStableAcrossInsertions) {
  MetricRegistry reg;
  Counter& a = reg.counter("a");
  a.add(1);
  // Force rebalancing-ish churn; std::map nodes must not move.
  for (int i = 0; i < 100; ++i) reg.counter("x" + std::to_string(i));
  a.add(1);
  EXPECT_EQ(reg.counter("a").value(), 2u);
}

TEST(MetricRegistry, MergeSemanticsPerKind) {
  MetricRegistry a, b;
  a.counter("c").add(3);
  b.counter("c").add(4);
  b.counter("only_b").add(1);

  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  b.gauge("unset");  // registered but never set: must not clobber

  a.stat("s").add(1.0);
  b.stat("s").add(3.0);

  a.histogram("h").add(1);
  b.histogram("h").add(1000);

  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 2.0);  // last-written wins
  EXPECT_EQ(a.stat("s").count(), 2u);
  EXPECT_DOUBLE_EQ(a.stat("s").mean(), 2.0);
  EXPECT_EQ(a.histogram("h").total(), 2u);

  MetricRegistry g1, g2;
  g1.gauge("g").set(5.0);
  g2.gauge("g");  // present, unset
  g1.merge(g2);
  EXPECT_DOUBLE_EQ(g1.gauge("g").value(), 5.0);
}

// ---------------------------------------------------------- telemetry record

TEST(Telemetry, RecordUpdatesStandardMetrics) {
  Telemetry tel;
  TraceSink sink;
  sink.attach(tel);
  tel.record(PartitionResizeEvent{100, 8, 8, 6, 4, 17});
  tel.record(DrowsyTransitionEvent{200, 32, 40});
  tel.record(RefreshBurstEvent{300, 5, 2, 1});
  tel.record(BypassDecisionEvent{400, 0x1000, Mode::User, true});
  tel.record(BypassDecisionEvent{500, 0x2000, Mode::User, false});
  EvictionEvent ev;
  ev.fill_cycle = 10;
  ev.evict_cycle = 1034;
  tel.record(ev);
  EpochSample s;
  s.accesses = 10;
  s.misses = 5;
  tel.record(s);

  const MetricRegistry& m = tel.metrics();
  EXPECT_EQ(m.counters().at("l2.partition.resizes").value(), 1u);
  EXPECT_EQ(m.counters().at("l2.partition.flush_writebacks").value(), 17u);
  EXPECT_EQ(m.counters().at("l2.drowsy.wakeups").value(), 40u);
  EXPECT_EQ(m.counters().at("l2.refresh.scrubbed").value(), 5u);
  EXPECT_EQ(m.counters().at("l2.bypass.decisions").value(), 2u);
  EXPECT_EQ(m.counters().at("l2.bypass.bypassed").value(), 1u);
  EXPECT_EQ(m.counters().at("l2.evictions").value(), 1u);
  EXPECT_EQ(m.histograms().at("l2.block.residency_cycles").total(), 1u);
  EXPECT_EQ(m.counters().at("l2.epochs").value(), 1u);
  EXPECT_DOUBLE_EQ(m.stats().at("l2.epoch.miss_rate").mean(), 0.5);
  // One record per event, two per epoch sample; evictions are opt-in.
  EXPECT_EQ(sink.event_count(), 7u);
}

// ------------------------------------------------------------- export sinks

TEST(TraceExport, ParseFormatAliases) {
  EXPECT_EQ(parse_trace_format("jsonl"), TraceFormat::Jsonl);
  EXPECT_EQ(parse_trace_format("json"), TraceFormat::Jsonl);
  EXPECT_EQ(parse_trace_format("chrome"), TraceFormat::ChromeTrace);
  EXPECT_EQ(parse_trace_format("perfetto"), TraceFormat::ChromeTrace);
  EXPECT_EQ(parse_trace_format("bogus"), std::nullopt);
}

TEST(TraceExport, JsonlOneSelfDescribingObjectPerEvent) {
  Telemetry tel;
  tel.set_context("wl", "scheme");
  TraceSink sink(TraceFormat::Jsonl);
  sink.attach(tel);
  tel.record(PartitionResizeEvent{123, 8, 8, 10, 4, 0});
  tel.record(RefreshBurstEvent{456, 3, 0, 0});
  EXPECT_EQ(sink.event_count(), 2u);

  const std::string out = sink.render();
  // Two newline-terminated lines, each a flat object.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("{\"type\":\"partition-resize\",\"cycle\":123,"
                     "\"track\":\"wl/scheme\""),
            std::string::npos);
  EXPECT_NE(out.find("\"new_user_ways\":10"), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"refresh-burst\""), std::string::npos);
}

TEST(TraceExport, ChromeTraceStructureAndTimestamps) {
  Telemetry tel;
  tel.set_context("wl", "s1");
  TraceSink sink(TraceFormat::ChromeTrace);
  sink.attach(tel);
  tel.record(PartitionResizeEvent{2'000, 8, 8, 6, 4, 0});
  EpochSample s;
  s.cycle = 4'000;
  s.user_ways = 6;
  s.kernel_ways = 4;
  tel.record(s);

  const std::string out = sink.render();
  EXPECT_EQ(out.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  // Track metadata names the workload/scheme run.
  EXPECT_NE(out.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"wl/s1\""), std::string::npos);
  // 2000 cycles at 1 GHz = 2 us; instants are process-scoped.
  EXPECT_NE(out.find("\"ph\":\"i\",\"ts\":2"), std::string::npos);
  EXPECT_NE(out.find("\"s\":\"p\""), std::string::npos);
  // Epoch samples become counter tracks.
  EXPECT_NE(out.find("\"name\":\"l2.ways\",\"ph\":\"C\",\"ts\":4"),
            std::string::npos);
  EXPECT_NE(out.find("\"user\":6"), std::string::npos);
}

TEST(TraceExport, EvictionsAreOptIn) {
  Telemetry quiet_tel, verbose_tel;
  TraceSink quiet(TraceFormat::Jsonl);
  quiet.attach(quiet_tel);
  TraceSinkOptions verbose_opts;
  verbose_opts.include_evictions = true;
  TraceSink verbose(TraceFormat::Jsonl, verbose_opts);
  verbose.attach(verbose_tel);

  quiet_tel.record(EvictionEvent{});
  verbose_tel.record(EvictionEvent{});
  EXPECT_EQ(quiet.event_count(), 0u);
  EXPECT_EQ(verbose.event_count(), 1u);
}

TEST(TraceExport, MetricsJsonIncludesAllKinds) {
  Telemetry tel;
  tel.metrics().counter("c").add(9);
  tel.metrics().gauge("g").set(1.5);
  tel.metrics().stat("st").add(2.0);
  tel.metrics().histogram("h").add(5);

  const std::string out = metrics_json_string(tel.metrics());
  EXPECT_NE(out.find("\"c\":9"), std::string::npos);
  EXPECT_NE(out.find("\"g\":1.5"), std::string::npos);
  EXPECT_NE(out.find("\"mean\":2"), std::string::npos);
  EXPECT_NE(out.find("\"log2_buckets\""), std::string::npos);
}

// ----------------------------------------------- end-to-end sim guarantees

/// The records of `type` in a JSONL sink's render, parsed.
std::vector<FlatParser> records_of(const TraceSink& sink,
                                   const std::string& type) {
  std::vector<FlatParser> out;
  std::istringstream lines(sink.render());
  std::string line, t;
  while (std::getline(lines, line)) {
    FlatParser p;
    EXPECT_TRUE(p.parse(line)) << line;
    if (p.get_str("type", t) && t == type) out.push_back(std::move(p));
  }
  return out;
}

std::uint64_t u64(const FlatParser& p, const char* key) {
  std::uint64_t v = 0;
  EXPECT_TRUE(p.get_u64(key, v)) << key;
  return v;
}

std::string str(const FlatParser& p, const char* key) {
  std::string v;
  EXPECT_TRUE(p.get_str(key, v)) << key;
  return v;
}

SimResult run_browser(SchemeKind kind, Telemetry* tel,
                      std::uint64_t sample_interval = 0) {
  const Trace t = generate_app_trace(AppId::Browser, 120'000, 7);
  SimOptions opts;
  if (tel != nullptr) {
    tel->set_sample_interval(sample_interval);
    opts.telemetry = tel;
  }
  return simulate(t, build_scheme(kind), opts);
}

TEST(ObsEndToEnd, NoSinkPathIsBitIdentical) {
  // The acceptance bar: attaching a full observability session must not
  // perturb the simulation. Every result field, the floating-point energy
  // accumulators included, must be bit-identical.
  for (SchemeKind k : {SchemeKind::BaselineSram, SchemeKind::DynamicStt,
                       SchemeKind::StaticPartMrstt}) {
    const SimResult plain = run_browser(k, nullptr);
    Telemetry tel;
    const SimResult observed = run_browser(k, &tel, 10'000);
    expect_fields_equal(plain, observed, scheme_name(k));
    EXPECT_FALSE(tel.metrics().empty()) << scheme_name(k);
  }
}

TEST(ObsEndToEnd, DynamicEpochSeriesMatchesAllocationHistory) {
  // The trace's l2.ways counter track must reproduce the E8
  // way-allocation trajectory the scheme itself records.
  const Trace t = generate_app_trace(AppId::Browser, 150'000, 11);
  DynamicL2Config cfg;
  cfg.cache.name = "L2";
  cfg.cache.size_bytes = 2ull << 20;
  cfg.cache.assoc = 16;
  cfg.epoch_accesses = 5'000;
  DynamicPartitionedL2 l2(cfg);
  Telemetry tel;
  TraceSink sink;
  sink.attach(tel);
  SimOptions opts;
  opts.telemetry = &tel;
  simulate(t, l2, opts);

  const auto& hist = l2.allocation_history();
  const std::vector<FlatParser> series = records_of(sink, "l2.ways");
  ASSERT_GT(series.size(), 0u);

  // Walk the epoch samples; at each sample's cycle, the scheme's recorded
  // allocation (last history entry at or before that cycle) must match.
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Cycle cycle = u64(series[i], "cycle");
    std::uint32_t user = 8, kernel = 8;  // controller's initial split
    for (const AllocationSample& h : hist) {
      if (h.cycle > cycle) break;
      user = h.user_ways;
      kernel = h.kernel_ways;
    }
    EXPECT_EQ(u64(series[i], "user"), user) << "epoch " << i;
    EXPECT_EQ(u64(series[i], "kernel"), kernel) << "epoch " << i;
  }
  // And the resize events must line up 1:1 with the history.
  EXPECT_EQ(tel.metrics().counters().at("l2.partition.resizes").value(),
            hist.size());
}

TEST(ObsEndToEnd, SampleIntervalIsTheDynamicCadenceToo) {
  // With a sample interval set, DP-STT samples only at it: one l2.ways
  // record per interval and no extra one per DP epoch.
  constexpr std::uint64_t kInterval = 10'000;
  const Trace t = generate_app_trace(AppId::Browser, 120'000, 7);
  Telemetry tel;
  tel.set_sample_interval(kInterval);
  TraceSink sink;
  sink.attach(tel);
  SimOptions opts;
  opts.telemetry = &tel;
  simulate(t, build_scheme(SchemeKind::DynamicStt), opts);

  const std::uint64_t ticks = t.size() / kInterval;
  EXPECT_EQ(records_of(sink, "l2.ways").size(), ticks);
  EXPECT_EQ(tel.metrics().counters().at("l2.epochs").value(), ticks);
}

/// A sink that exports evictions.
TraceSinkOptions with_evictions() {
  TraceSinkOptions o;
  o.include_evictions = true;
  return o;
}

TEST(ObsEndToEnd, LegacyObserverAndHubSeeIdenticalEvictionStreams) {
  // The shrunk 512 KB scheme overflows on the browser working set, so the
  // run actually evicts (the 2 MB baseline often never does).
  const Trace t = generate_app_trace(AppId::Browser, 120'000, 3);

  std::vector<EvictionEvent> via_legacy;
  {
    const std::unique_ptr<L2Interface> l2 =
        build_scheme(SchemeKind::ShrunkSram);
    l2->add_eviction_observer(
        [&](const EvictionEvent& e) { via_legacy.push_back(e); });
    simulate(t, *l2);
  }

  Telemetry tel;
  TraceSink sink(TraceFormat::Jsonl, with_evictions());
  sink.attach(tel);
  SimOptions opts;
  opts.telemetry = &tel;
  simulate(t, build_scheme(SchemeKind::ShrunkSram), opts);
  const std::vector<FlatParser> via_sink = records_of(sink, "eviction");

  ASSERT_EQ(via_legacy.size(), via_sink.size());
  ASSERT_FALSE(via_legacy.empty());
  char line[24];
  for (std::size_t i = 0; i < via_legacy.size(); ++i) {
    std::snprintf(line, sizeof line, "0x%llx",
                  static_cast<unsigned long long>(via_legacy[i].line));
    EXPECT_EQ(str(via_sink[i], "line"), line);
    EXPECT_EQ(u64(via_sink[i], "cycle"), via_legacy[i].evict_cycle);
    EXPECT_EQ(u64(via_sink[i], "fill_cycle"), via_legacy[i].fill_cycle);
    EXPECT_EQ(str(via_sink[i], "owner"), to_string(via_legacy[i].owner));
    EXPECT_EQ(u64(via_sink[i], "dirty"), via_legacy[i].dirty ? 1u : 0u);
  }
}

TEST(ObsEndToEnd, BothPathsTogetherMulticast) {
  // A per-array observer and the sink must coexist: both receive every
  // event.
  const Trace t = generate_app_trace(AppId::Browser, 120'000, 3);
  std::uint64_t legacy_count = 0;
  Telemetry tel;
  TraceSink sink(TraceFormat::Jsonl, with_evictions());
  sink.attach(tel);
  const std::unique_ptr<L2Interface> l2 = build_scheme(SchemeKind::ShrunkSram);
  l2->add_eviction_observer([&](const EvictionEvent&) { ++legacy_count; });
  SimOptions opts;
  opts.telemetry = &tel;
  simulate(t, *l2, opts);

  EXPECT_GT(legacy_count, 0u);
  EXPECT_EQ(legacy_count, records_of(sink, "eviction").size());
  EXPECT_EQ(legacy_count,
            tel.metrics().counters().at("l2.evictions").value());
}

}  // namespace
}  // namespace mobcache
