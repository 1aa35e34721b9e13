/// \file test_fuzz.cpp
/// Randomized round-trip and robustness sweeps: components must survive
/// arbitrary (valid) inputs, and the serializers must be exact inverses on
/// random data — not just on the friendly traces the generator emits.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "cache/bank_model.hpp"
#include "common/rng.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "workload/scenario.hpp"

namespace mobcache {
namespace {

/// Per-process dir: under `ctest -j` every test case is a separate process,
/// and a shared fixed path would let one case's cleanup remove_all another
/// process's files mid-test.
std::filesystem::path process_dir(const std::string& stem) {
  return std::filesystem::temp_directory_path() /
         (stem + std::to_string(::getpid()));
}

Trace random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Trace t("fuzz-" + std::to_string(seed));
  for (std::size_t i = 0; i < n; ++i) {
    Access a;
    a.mode = rng.chance(0.5) ? Mode::Kernel : Mode::User;
    // Arbitrary addresses in the right half, arbitrary alignment.
    const Addr base = a.mode == Mode::Kernel ? kKernelSpaceBase : 0;
    a.addr = base + (rng.next_u64() & 0x0000'7fff'ffff'ffffull);
    a.type = static_cast<AccessType>(rng.below(3));
    a.thread = static_cast<std::uint16_t>(rng.below(65536));
    t.push(a);
  }
  return t;
}

class FuzzRoundtrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    dir_ = process_dir("mobcache_fuzz_");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_P(FuzzRoundtrip, FlatAndCompressedAgreeOnRandomTraces) {
  const Trace t = random_trace(GetParam(), 5'000);
  const std::string flat = (dir_ / "f.mct").string();
  const std::string comp = (dir_ / "f.mctz").string();
  ASSERT_TRUE(write_trace(t, flat));
  ASSERT_TRUE(write_trace_compressed(t, comp));

  const auto a = read_trace_detailed(flat).trace;
  const auto b = read_trace_compressed_detailed(comp).trace;
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->size(), t.size());
  ASSERT_EQ(b->size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ((*a)[i].addr, t[i].addr) << i;
    ASSERT_EQ((*b)[i].addr, t[i].addr) << i;
    ASSERT_EQ((*b)[i].type, t[i].type) << i;
    ASSERT_EQ((*b)[i].mode, t[i].mode) << i;
    ASSERT_EQ((*b)[i].thread, t[i].thread) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundtrip,
                         ::testing::Values(1, 7, 1234, 99999, 31337));

TEST(FuzzCorruption, CompressedReaderNeverCrashesOnBitFlips) {
  const auto dir = process_dir("mobcache_flip_");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "t.mctz").string();
  const Trace t = random_trace(5, 2'000);
  ASSERT_TRUE(write_trace_compressed(t, path));

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  Rng rng(17);
  int loaded = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupt = bytes;
    // Flip 1-4 random bits anywhere in the file.
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = rng.below(corrupt.size());
      corrupt[byte] = static_cast<char>(corrupt[byte] ^
                                        (1u << rng.below(8)));
    }
    const std::string cpath = (dir / "c.mctz").string();
    std::ofstream out(cpath, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    // Must either load something structurally valid or reject — no crash,
    // no mode/address inconsistency.
    const auto r = read_trace_compressed_detailed(cpath).trace;
    if (r.has_value()) {
      ++loaded;
      EXPECT_TRUE(r->modes_consistent_with_addresses());
    }
  }
  // Most random corruptions must be caught (magic/varint/consistency).
  EXPECT_LT(loaded, 45);
  std::filesystem::remove_all(dir);
}

TEST(FuzzBankModel, RandomScheduleInvariants) {
  Rng rng(23);
  BankModel b(4, 4);
  const Cycle wl = 30;
  Cycle now = 0;
  for (int i = 0; i < 20'000; ++i) {
    now += rng.below(50);
    const Addr line = rng.below(1024) * kLineSize;
    if (rng.chance(0.4)) {
      const Cycle stall = b.write_enqueue(line, now, wl);
      ASSERT_LE(stall, 4 * wl) << "write stall bounded by queue drain";
    } else {
      const Cycle stall = b.read_stall(line, now, wl);
      ASSERT_LE(stall, wl) << "reads wait at most one write";
    }
    ASSERT_LE(b.queue_depth(line, now, wl), 5u);
  }
}

TEST(FuzzScenario, RandomAppMixesStayConsistent) {
  Rng rng(29);
  for (int trial = 0; trial < 5; ++trial) {
    ScenarioConfig sc;
    const auto apps = all_apps();
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t i = 0; i < n; ++i)
      sc.apps.push_back(apps[rng.below(apps.size())]);
    sc.total_accesses = 30'000 + rng.below(50'000);
    sc.slice_mean = 2'000 + rng.below(20'000);
    sc.seed = rng.next_u64();
    const Trace t = generate_scenario(sc);
    ASSERT_GE(t.size(), sc.total_accesses);
    ASSERT_TRUE(t.modes_consistent_with_addresses());
  }
}

}  // namespace
}  // namespace mobcache
