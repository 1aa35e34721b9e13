#include "trace/trace_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "workload/suite.hpp"

namespace mobcache {
namespace {

/// Every test starts from an empty cache; the instance is process-wide and
/// other tests in this binary would otherwise leak state in.
class TraceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceCache::instance().clear(); }
  void TearDown() override { TraceCache::instance().clear(); }
};

Trace tiny_trace(const char* name, std::size_t n) {
  Trace t(name);
  for (std::size_t i = 0; i < n; ++i) {
    Access a;
    a.addr = static_cast<Addr>(i) * kLineSize;
    t.push(a);
  }
  return t;
}

TEST_F(TraceCacheTest, SameKeyReturnsSamePointer) {
  TraceCache& c = TraceCache::instance();
  const TraceCacheKey key{7, 100, 42};
  const auto a = c.get_or_generate(key, [] { return tiny_trace("a", 100); });
  const auto b = c.get_or_generate(key, [] { return tiny_trace("b", 999); });
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(b->name(), "a") << "second generate() must never run";
  const auto s = c.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.resident_entries, 1u);
}

TEST_F(TraceCacheTest, DistinctKeysGenerateSeparately) {
  TraceCache& c = TraceCache::instance();
  const auto a =
      c.get_or_generate({1, 10, 1}, [] { return tiny_trace("x", 10); });
  const auto b =
      c.get_or_generate({1, 10, 2}, [] { return tiny_trace("y", 10); });
  const auto d =
      c.get_or_generate({1, 11, 1}, [] { return tiny_trace("z", 11); });
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(c.stats().misses, 3u);
}

TEST_F(TraceCacheTest, ConcurrentFirstRequestsGenerateOnce) {
  TraceCache& c = TraceCache::instance();
  std::atomic<int> generations{0};
  const TraceCacheKey key{2, 5'000, 7};

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const Trace>> results(8);
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      results[t] = c.get_or_generate(key, [&] {
        generations.fetch_add(1);
        return tiny_trace("shared", 5'000);
      });
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(generations.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
  }
  const auto s = c.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 7u);
}

TEST_F(TraceCacheTest, GeneratorExceptionDoesNotPoisonKey) {
  TraceCache& c = TraceCache::instance();
  const TraceCacheKey key{3, 10, 1};
  EXPECT_THROW(c.get_or_generate(
                   key, []() -> Trace { throw std::runtime_error("gen"); }),
               std::runtime_error);
  // A later request with a working generator must succeed.
  const auto ok = c.get_or_generate(key, [] { return tiny_trace("ok", 10); });
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->name(), "ok");
}

TEST_F(TraceCacheTest, CapacityEvictsUnreferencedLru) {
  TraceCache& c = TraceCache::instance();
  // Three ~64 KB traces against a budget that holds roughly one of them.
  const std::size_t n = 4'000;
  {
    auto a = c.get_or_generate({9, n, 1}, [&] { return tiny_trace("a", n); });
    auto b = c.get_or_generate({9, n, 2}, [&] { return tiny_trace("b", n); });
    EXPECT_EQ(a->size(), n);
    EXPECT_EQ(b->size(), n);
  }  // both now unreferenced
  c.set_capacity_bytes(sizeof(Access) * n * 3 / 2);
  EXPECT_GE(c.stats().evictions, 1u);
  EXPECT_LE(c.stats().resident_bytes, c.capacity_bytes());
  c.set_capacity_bytes(1024ull << 20);
}

TEST_F(TraceCacheTest, ReferencedEntriesSurviveEviction) {
  TraceCache& c = TraceCache::instance();
  const std::size_t n = 4'000;
  auto held = c.get_or_generate({8, n, 1}, [&] { return tiny_trace("h", n); });
  c.set_capacity_bytes(1);  // budget nothing: only unreferenced entries go
  const auto again =
      c.get_or_generate({8, n, 1}, [&] { return tiny_trace("h2", n); });
  EXPECT_EQ(again.get(), held.get()) << "live entries must never be evicted";
  c.set_capacity_bytes(1024ull << 20);
}

// Eviction under pressure: four workers churn distinct keys while pinning
// their last few results, so publishes constantly race pinned entries and
// other keys' in-flight generations. Pins may push residency over budget
// transiently; once every pin is gone, the budget must hold again and
// clear() must account back down to exactly zero (any drift in the
// resident-bytes bookkeeping shows up here as a nonzero remainder).
TEST_F(TraceCacheTest, EvictionUnderPressureHoldsBudgetAndAccounting) {
  TraceCache& c = TraceCache::instance();
  const std::size_t n = 4'000;  // ~64 KB per trace
  const std::uint64_t budget = sizeof(Access) * n * 3;
  c.set_capacity_bytes(budget);

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::deque<std::shared_ptr<const Trace>> held;
      for (std::uint64_t i = 0; i < 24; ++i) {
        held.push_back(c.get_or_generate(
            {40 + t, n, i}, [&] { return tiny_trace("pressure", n); }));
        if (held.size() > 3) held.pop_front();
      }
    });
  }
  for (auto& th : threads) th.join();

  // All pins released. The next access — hit or miss — must re-converge
  // the cache to its budget; the caller's own copy is the only legal pin.
  const auto last = c.get_or_generate(
      {40, n, 23}, [&] { return tiny_trace("pressure", n); });
  EXPECT_LE(c.stats().resident_bytes, budget);

  c.set_capacity_bytes(1024ull << 20);
  c.clear();
  // `last` still pins its entry if resident; everything else must be gone
  // and the byte ledger must match the survivors exactly.
  const auto s = c.stats();
  EXPECT_LE(s.resident_entries, 1u);
  if (s.resident_entries == 0) {
    EXPECT_EQ(s.resident_bytes, 0u);
  }
}

// The budget holds even while a shared_future generation is in flight: the
// in-flight entry is unevictable (and contributes zero bytes until it
// publishes), but churn around it must keep evicting.
TEST_F(TraceCacheTest, BudgetEnforcedWhileGenerationInFlight) {
  TraceCache& c = TraceCache::instance();
  const std::size_t n = 4'000;
  const std::uint64_t budget = sizeof(Access) * n * 3;
  c.set_capacity_bytes(budget);

  std::promise<void> unblock;
  std::shared_future<void> gate = unblock.get_future().share();
  std::atomic<bool> started{false};
  std::thread slow([&] {
    (void)c.get_or_generate({60, n, 0}, [&] {
      started.store(true);
      gate.wait();
      return tiny_trace("slow", n);
    });
  });
  while (!started.load()) std::this_thread::yield();

  // Churn unpinned keys past the budget while the slow generation holds
  // its key in flight: every publish must leave residency within budget.
  for (std::uint64_t i = 1; i <= 12; ++i) {
    (void)c.get_or_generate({60, n, i},
                            [&] { return tiny_trace("churn", n); });
    EXPECT_LE(c.stats().resident_bytes, budget) << "after key " << i;
  }
  unblock.set_value();
  slow.join();
  // The slow entry published after the churn; the next access settles it.
  (void)c.get_or_generate({60, n, 1},
                          [&] { return tiny_trace("churn", n); });
  EXPECT_LE(c.stats().resident_bytes, budget);
  c.set_capacity_bytes(1024ull << 20);
}

// The accounting-drift regression this suite exposed: publishes while every
// entry is pinned legitimately overshoot the budget, but releasing those
// pins used to leave the cache over budget *forever* — eviction only ran on
// publish and set_capacity, never on hits. A plain hit must re-converge.
TEST_F(TraceCacheTest, ReleasedPinsReconvergeOnNextHit) {
  TraceCache& c = TraceCache::instance();
  const std::size_t n = 4'000;
  const std::uint64_t budget = sizeof(Access) * n * 2;
  c.set_capacity_bytes(budget);

  auto a = c.get_or_generate({70, n, 1}, [&] { return tiny_trace("a", n); });
  auto b = c.get_or_generate({70, n, 2}, [&] { return tiny_trace("b", n); });
  auto d = c.get_or_generate({70, n, 3}, [&] { return tiny_trace("d", n); });
  // Three pinned traces against a two-trace budget: nothing is evictable,
  // so the cache is legitimately over budget right now.
  EXPECT_GT(c.stats().resident_bytes, budget);

  a.reset();
  b.reset();
  d.reset();
  // A pure hit — no publish, no capacity change — must enforce the budget.
  (void)c.get_or_generate({70, n, 3}, [&] { return tiny_trace("d2", n); });
  EXPECT_LE(c.stats().resident_bytes, budget);
  c.set_capacity_bytes(1024ull << 20);
}

TEST_F(TraceCacheTest, CachedAppTraceMatchesGenerator) {
  const auto cached = cached_app_trace(AppId::Browser, 10'000, 5);
  const Trace fresh = generate_app_trace(AppId::Browser, 10'000, 5);
  ASSERT_EQ(cached->size(), fresh.size());
  EXPECT_EQ(cached->name(), fresh.name());
  for (std::size_t i = 0; i < fresh.size(); i += 997) {
    EXPECT_EQ((*cached)[i].addr, fresh[i].addr) << i;
  }
}

}  // namespace
}  // namespace mobcache
