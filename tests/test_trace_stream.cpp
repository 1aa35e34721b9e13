// Streaming pipeline identity suite: the chunked producers/consumers must
// reproduce the materialized path bit for bit — same record sequences and
// same SimResults for every scheme. This is the contract the E22 fleet
// sweep (constant-memory sessions) stands on.

#include <gtest/gtest.h>

#include <vector>

#include "core/scheme.hpp"
#include "exp/result_store.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_stream.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace mobcache {
namespace {

// Drains a stream and checks the concatenated chunks equal `expect`
// field-by-field (memcmp would compare padding bytes). Also bounds every
// chunk: generators may overshoot the soft cap by one emission unit (a user
// burst or kernel episode), never more.
void expect_stream_matches(TraceStream& stream, const Trace& expect) {
  constexpr std::size_t kSlack = 16384;
  std::size_t pos = 0;
  for (std::span<const Access> c = stream.next_chunk(); !c.empty();
       c = stream.next_chunk()) {
    EXPECT_LE(c.size(), kStreamChunkRecords + kSlack);
    for (const Access& a : c) {
      ASSERT_LT(pos, expect.size());
      const Access& e = expect[pos];
      ASSERT_EQ(a.addr, e.addr) << "record " << pos;
      ASSERT_EQ(a.thread, e.thread) << "record " << pos;
      ASSERT_EQ(a.type, e.type) << "record " << pos;
      ASSERT_EQ(a.mode, e.mode) << "record " << pos;
      ++pos;
    }
  }
  EXPECT_EQ(pos, expect.size());
  EXPECT_TRUE(stream.next_chunk().empty());  // exhausted stays exhausted
}

GeneratorConfig small_gen_cfg() {
  GeneratorConfig gc;
  gc.target_accesses = 180'000;  // several chunks
  gc.seed = 77;
  return gc;
}

ScenarioConfig small_scenario_cfg() {
  ScenarioConfig sc;
  sc.apps = {AppId::Messenger, AppId::Browser, AppId::AudioPlayer};
  sc.total_accesses = 150'000;
  sc.slice_mean = 9'000;
  sc.seed = 1234;
  return sc;
}

TEST(TraceStream, AppStreamMatchesGenerateTrace) {
  const AppSpec spec = make_app(AppId::Browser);
  const GeneratorConfig gc = small_gen_cfg();
  const Trace batch = generate_trace(spec, gc);
  EXPECT_GE(batch.size(), gc.target_accesses);

  AppTraceStream stream(spec, gc);
  EXPECT_EQ(stream.name(), batch.name());
  expect_stream_matches(stream, batch);
}

TEST(TraceStream, AppStreamResetReplaysIdentically) {
  const AppSpec spec = make_app(AppId::Game);
  GeneratorConfig gc = small_gen_cfg();
  gc.target_accesses = 70'000;
  AppTraceStream stream(spec, gc);
  const Trace first = materialize(stream);
  stream.reset();
  expect_stream_matches(stream, first);
}

TEST(TraceStream, ScenarioStreamMatchesGenerateScenario) {
  const ScenarioConfig sc = small_scenario_cfg();
  const Trace batch = generate_scenario(sc);
  EXPECT_GE(batch.size(), sc.total_accesses);
  EXPECT_TRUE(batch.modes_consistent_with_addresses());

  ScenarioStream stream(sc);
  EXPECT_EQ(stream.name(), batch.name());
  expect_stream_matches(stream, batch);
}

TEST(TraceStream, ScenarioStreamEmptyConfigs) {
  ScenarioConfig none;
  none.apps = {};
  ScenarioStream s1(none);
  EXPECT_TRUE(s1.next_chunk().empty());

  ScenarioConfig zero;
  zero.apps = {AppId::Launcher};
  zero.total_accesses = 0;
  ScenarioStream s2(zero);
  EXPECT_TRUE(s2.next_chunk().empty());
}

TEST(TraceStream, MaterializedStreamRoundTrips) {
  const Trace t = generate_trace(make_app(AppId::Email), small_gen_cfg());
  MaterializedTraceStream stream(t);
  expect_stream_matches(stream, t);
  stream.reset();
  const Trace again = materialize(stream);
  EXPECT_EQ(again.size(), t.size());
  EXPECT_EQ(again.name(), t.name());
}

TEST(TraceStream, CountersTrackChunksAndReuse) {
  reset_stream_counters();
  const AppSpec spec = make_app(AppId::Social);
  const GeneratorConfig gc = small_gen_cfg();
  AppTraceStream stream(spec, gc);
  std::uint64_t chunks = 0;
  while (!stream.next_chunk().empty()) ++chunks;
  EXPECT_GE(chunks, 2u);  // target spans several chunks
  const StreamCounters c = stream_counters();
  EXPECT_EQ(c.chunks_generated, chunks);
  EXPECT_GE(c.chunk_reuse_hits, chunks - 1);  // one buffer, reused per refill
  EXPECT_GT(c.high_water_chunk_bytes, 0u);
  // The high-water mark is the constant-memory witness: one chunk buffer
  // (its vector may round capacity up to the next power of two after an
  // overshoot), never the whole session.
  EXPECT_LE(c.high_water_chunk_bytes,
            4 * kStreamChunkRecords * sizeof(Access));
  reset_stream_counters();
  EXPECT_EQ(stream_counters().chunks_generated, 0u);
}

// The headline identity: simulate(stream) == simulate(materialized trace),
// byte for byte, for every scheme — pinned through the result store's
// exact-round-trip serialization, like the batch engine's equivalence suite.
TEST(TraceStream, StreamingSimulateByteIdenticalOnAllSchemes) {
  ScenarioConfig sc = small_scenario_cfg();
  sc.total_accesses = 90'000;
  const Trace batch = generate_scenario(sc);
  const SimOptions opts;

  for (int k = 0; k < kSchemeCount; ++k) {
    const auto kind = static_cast<SchemeKind>(k);
    const auto ref_l2 = build_scheme(kind);
    const SimResult expect = simulate(batch, *ref_l2, opts);

    ScenarioStream stream(sc);
    const auto stream_l2 = build_scheme(kind);
    const SimResult got = simulate(stream, *stream_l2, opts);

    EXPECT_EQ(result_to_record_json(got), result_to_record_json(expect))
        << "scheme " << scheme_name(kind);
  }
}

}  // namespace
}  // namespace mobcache
