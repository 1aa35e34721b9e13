/// \file test_obs.cpp
/// The observability subsystem: metric registry semantics, the epoch ring
/// buffer, the observer hub, export sinks, and — most importantly — the
/// guarantee that attaching telemetry never changes simulation results.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dynamic_partitioned_l2.hpp"
#include "core/scheme.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "exp/runner.hpp"
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

TEST(MetricRegistry, NullSafeHelpers) {
  inc(nullptr);
  set(nullptr, 1.0);
  observe(static_cast<RunningStat*>(nullptr), 1.0);
  observe(static_cast<Log2Histogram*>(nullptr), 1u);
  MetricRegistry reg;
  inc(&reg.counter("c"), 2);
  EXPECT_EQ(reg.counter("c").value(), 2u);
}

// -------------------------------------------------------------- ring buffer

TEST(EpochSeries, RingKeepsTailAndFlagsTruncation) {
  EpochSeries s(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EpochSample e;
    e.epoch = i;
    s.push(e);
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.total_pushed(), 10u);
  EXPECT_TRUE(s.truncated());
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(s.at(i).epoch, 6u + i) << "chronological tail expected";
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().epoch, 6u);
  EXPECT_EQ(snap.back().epoch, 9u);
}

TEST(EpochSeries, BelowCapacityIsExact) {
  EpochSeries s(8);
  EpochSample e;
  e.epoch = 42;
  s.push(e);
  EXPECT_FALSE(s.truncated());
  EXPECT_EQ(s.at(0).epoch, 42u);
}

// ---------------------------------------------------------------------- hub

TEST(ObserverHub, MulticastsPerEventType) {
  ObserverHub hub;
  int resizes = 0, evictions = 0;
  hub.on_partition_resize([&](const PartitionResizeEvent&) { ++resizes; });
  hub.on_partition_resize([&](const PartitionResizeEvent&) { ++resizes; });
  EXPECT_FALSE(hub.wants_evictions());
  hub.on_eviction([&](const EvictionEvent&) { ++evictions; });
  EXPECT_TRUE(hub.wants_evictions());

  hub.emit(PartitionResizeEvent{});
  hub.emit(EvictionEvent{});
  hub.emit(RefreshBurstEvent{});  // no subscribers: no-op
  EXPECT_EQ(resizes, 2);
  EXPECT_EQ(evictions, 1);
}

// ---------------------------------------------------------- telemetry record

TEST(Telemetry, RecordUpdatesStandardMetrics) {
  Telemetry tel;
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
  s.epoch = 0;
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
  ASSERT_EQ(tel.epochs().size(), 1u);
  EXPECT_EQ(tel.epochs().at(0).misses, 5u);
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
  Telemetry tel;
  TraceSink quiet(TraceFormat::Jsonl);
  quiet.attach(tel);
  TraceSinkOptions verbose_opts;
  verbose_opts.include_evictions = true;
  TraceSink verbose(TraceFormat::Jsonl, verbose_opts);
  verbose.attach(tel);

  tel.record(EvictionEvent{});
  EXPECT_EQ(quiet.event_count(), 0u);
  EXPECT_EQ(verbose.event_count(), 1u);
}

TEST(TraceExport, MetricsJsonIncludesAllKinds) {
  Telemetry tel;
  tel.set_context("w", "s");
  tel.metrics().counter("c").add(9);
  tel.metrics().gauge("g").set(1.5);
  tel.metrics().stat("st").add(2.0);
  tel.metrics().histogram("h").add(5);
  EpochSample s;
  s.epoch = 1;
  tel.epochs().push(s);

  const std::string out = telemetry_to_json(tel);
  EXPECT_NE(out.find("\"workload\":\"w\""), std::string::npos);
  EXPECT_NE(out.find("\"c\":9"), std::string::npos);
  EXPECT_NE(out.find("\"g\":1.5"), std::string::npos);
  EXPECT_NE(out.find("\"mean\":2"), std::string::npos);
  EXPECT_NE(out.find("\"log2_buckets\""), std::string::npos);
  EXPECT_NE(out.find("\"total_epochs\":1"), std::string::npos);
  EXPECT_NE(out.find("\"truncated\":false"), std::string::npos);
}

// ----------------------------------------------- end-to-end sim guarantees

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

/// The acceptance bar: attaching a full observability session must not
/// perturb the simulation. Every result field — including the
/// floating-point energy accumulators — must be bit-identical.
void expect_bit_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.cpi, b.cpi);
  EXPECT_EQ(a.l2.total_accesses(), b.l2.total_accesses());
  EXPECT_EQ(a.l2.total_hits(), b.l2.total_hits());
  EXPECT_EQ(a.l2.evictions, b.l2.evictions);
  EXPECT_EQ(a.l2_energy.leakage_nj, b.l2_energy.leakage_nj);
  EXPECT_EQ(a.l2_energy.read_nj, b.l2_energy.read_nj);
  EXPECT_EQ(a.l2_energy.write_nj, b.l2_energy.write_nj);
  EXPECT_EQ(a.l2_energy.refresh_nj, b.l2_energy.refresh_nj);
  EXPECT_EQ(a.l2_energy.dram_nj, b.l2_energy.dram_nj);
  EXPECT_EQ(a.l2_avg_enabled_bytes, b.l2_avg_enabled_bytes);
  EXPECT_EQ(a.stall_l2_hit_cycles, b.stall_l2_hit_cycles);
  EXPECT_EQ(a.stall_l2_miss_cycles, b.stall_l2_miss_cycles);
}

TEST(ObsEndToEnd, NoSinkPathIsBitIdentical) {
  for (SchemeKind k : {SchemeKind::BaselineSram, SchemeKind::DynamicStt,
                       SchemeKind::StaticPartMrstt}) {
    const SimResult plain = run_browser(k, nullptr);
    Telemetry tel;
    const SimResult observed = run_browser(k, &tel, 10'000);
    expect_bit_identical(plain, observed);
    EXPECT_FALSE(tel.metrics().empty()) << scheme_name(k);
  }
}

TEST(ObsEndToEnd, DynamicEpochSeriesMatchesAllocationHistory) {
  // The telemetry epoch series must reproduce the E8 way-allocation
  // trajectory the scheme itself records.
  const Trace t = generate_app_trace(AppId::Browser, 150'000, 11);
  DynamicL2Config cfg;
  cfg.cache.name = "L2";
  cfg.cache.size_bytes = 2ull << 20;
  cfg.cache.assoc = 16;
  cfg.epoch_accesses = 5'000;
  DynamicPartitionedL2 l2(cfg);
  Telemetry tel;
  SimOptions opts;
  opts.telemetry = &tel;
  simulate(t, l2, opts);

  const auto& hist = l2.allocation_history();
  const EpochSeries& series = tel.epochs();
  ASSERT_GT(series.size(), 0u);

  // Walk the epoch samples; at each sample's cycle, the scheme's recorded
  // allocation (last history entry at or before that cycle) must match.
  for (std::size_t i = 0; i < series.size(); ++i) {
    const EpochSample& s = series.at(i);
    std::uint32_t user = 8, kernel = 8;  // controller's initial split
    for (const AllocationSample& h : hist) {
      if (h.cycle > s.cycle) break;
      user = h.user_ways;
      kernel = h.kernel_ways;
    }
    EXPECT_EQ(s.user_ways, user) << "epoch " << s.epoch;
    EXPECT_EQ(s.kernel_ways, kernel) << "epoch " << s.epoch;
  }
  // And the resize events must line up 1:1 with the history.
  EXPECT_EQ(tel.metrics().counters().at("l2.partition.resizes").value(),
            hist.size());
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

  std::vector<EvictionEvent> via_hub;
  {
    Telemetry tel;
    tel.hub().on_eviction(
        [&](const EvictionEvent& e) { via_hub.push_back(e); });
    SimOptions opts;
    opts.telemetry = &tel;
    simulate(t, build_scheme(SchemeKind::ShrunkSram), opts);
  }

  ASSERT_EQ(via_legacy.size(), via_hub.size());
  ASSERT_FALSE(via_legacy.empty());
  for (std::size_t i = 0; i < via_legacy.size(); ++i) {
    EXPECT_EQ(via_legacy[i].line, via_hub[i].line);
    EXPECT_EQ(via_legacy[i].evict_cycle, via_hub[i].evict_cycle);
    EXPECT_EQ(via_legacy[i].fill_cycle, via_hub[i].fill_cycle);
    EXPECT_EQ(via_legacy[i].owner, via_hub[i].owner);
    EXPECT_EQ(via_legacy[i].dirty, via_hub[i].dirty);
  }
}

TEST(ObsEndToEnd, BothPathsTogetherMulticast) {
  // A per-array observer and the hub must coexist: both receive every event.
  const Trace t = generate_app_trace(AppId::Browser, 120'000, 3);
  std::uint64_t legacy_count = 0;
  std::vector<EvictionEvent> via_hub;
  Telemetry tel;
  tel.hub().on_eviction([&](const EvictionEvent& e) { via_hub.push_back(e); });
  const std::unique_ptr<L2Interface> l2 = build_scheme(SchemeKind::ShrunkSram);
  l2->add_eviction_observer([&](const EvictionEvent&) { ++legacy_count; });
  SimOptions opts;
  opts.telemetry = &tel;
  simulate(t, *l2, opts);

  EXPECT_GT(legacy_count, 0u);
  EXPECT_EQ(legacy_count, via_hub.size());
  EXPECT_EQ(legacy_count,
            tel.metrics().counters().at("l2.evictions").value());
}

TEST(ObsEndToEnd, RunnerCollectsAndMergesTelemetry) {
  ExperimentRunner runner({AppId::Browser, AppId::Launcher}, 60'000, 5);
  runner.collect_telemetry = true;
  runner.telemetry_sample_interval = 10'000;
  const SchemeSuiteResult r = runner.run_scheme(SchemeKind::DynamicStt);

  ASSERT_EQ(r.per_workload_telemetry.size(), 2u);
  for (const auto& tel : r.per_workload_telemetry) {
    ASSERT_TRUE(tel);
    EXPECT_FALSE(tel->metrics().empty());
    EXPECT_GT(tel->epochs().size(), 0u);
  }
  const MetricRegistry merged = r.merged_metrics();
  const std::uint64_t merged_epochs = merged.counters().at("l2.epochs").value();
  std::uint64_t sum = 0;
  for (const auto& tel : r.per_workload_telemetry)
    sum += tel->metrics().counters().at("l2.epochs").value();
  EXPECT_EQ(merged_epochs, sum);

  // Telemetry off by default: no sessions, empty merged registry.
  ExperimentRunner plain({AppId::Browser}, 30'000, 5);
  const SchemeSuiteResult p = plain.run_scheme(SchemeKind::BaselineSram);
  EXPECT_TRUE(p.per_workload_telemetry.empty());
  EXPECT_TRUE(p.merged_metrics().empty());
}

}  // namespace
}  // namespace mobcache
