#include "trace/trace_compress.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "trace/trace_io.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

class TraceCompressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: under `ctest -j` every test case is a separate
    // process, and a shared fixed path would let one TearDown remove_all
    // race another process's writes.
    dir_ = std::filesystem::temp_directory_path() /
           ("mobcache_mctz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* n) const { return (dir_ / n).string(); }
  std::filesystem::path dir_;
};

TEST_F(TraceCompressTest, RoundtripIsExact) {
  const Trace original = generate_app_trace(AppId::Browser, 50'000, 3);
  ASSERT_TRUE(write_trace_compressed(original, path("t.mctz")));
  const auto loaded = read_trace_compressed_detailed(path("t.mctz")).trace;
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name(), original.name());
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ((*loaded)[i].addr, original[i].addr) << i;
    ASSERT_EQ((*loaded)[i].type, original[i].type) << i;
    ASSERT_EQ((*loaded)[i].mode, original[i].mode) << i;
    ASSERT_EQ((*loaded)[i].thread, original[i].thread) << i;
  }
}

TEST_F(TraceCompressTest, CompressesRealTracesWell) {
  const Trace t = generate_app_trace(AppId::VideoPlayer, 100'000, 3);
  ASSERT_TRUE(write_trace(t, path("flat.mct")));
  ASSERT_TRUE(write_trace_compressed(t, path("z.mctz")));
  const auto flat = std::filesystem::file_size(path("flat.mct"));
  const auto comp = std::filesystem::file_size(path("z.mctz"));
  EXPECT_LT(static_cast<double>(comp), static_cast<double>(flat) / 4.0)
      << "expected at least 4x compression on a strided workload";
}

TEST_F(TraceCompressTest, EmptyTrace) {
  Trace t("nothing");
  ASSERT_TRUE(write_trace_compressed(t, path("e.mctz")));
  const auto loaded = read_trace_compressed_detailed(path("e.mctz")).trace;
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
  EXPECT_EQ(loaded->name(), "nothing");
}

TEST_F(TraceCompressTest, RejectsFlatFormatMagic) {
  const Trace t = generate_app_trace(AppId::Launcher, 1'000, 3);
  ASSERT_TRUE(write_trace(t, path("flat.mct")));
  EXPECT_FALSE(read_trace_compressed_detailed(path("flat.mct"))
                   .trace.has_value());
}

TEST_F(TraceCompressTest, RejectsTruncation) {
  const Trace t = generate_app_trace(AppId::Launcher, 5'000, 3);
  ASSERT_TRUE(write_trace_compressed(t, path("t.mctz")));
  const auto full = std::filesystem::file_size(path("t.mctz"));
  std::filesystem::resize_file(path("t.mctz"), full - 5);
  EXPECT_FALSE(read_trace_compressed_detailed(path("t.mctz"))
                   .trace.has_value());
}

TEST_F(TraceCompressTest, RejectsTrailingGarbage) {
  const Trace t = generate_app_trace(AppId::Launcher, 1'000, 3);
  ASSERT_TRUE(write_trace_compressed(t, path("t.mctz")));
  {
    std::ofstream f(path("t.mctz"), std::ios::binary | std::ios::app);
    f << "extra";
  }
  // Header body_len no longer matches the payload scan end... the extra
  // bytes are beyond body_len, so the reader still consumes exactly
  // body_len and succeeds; corrupt the body length itself instead.
  std::fstream f(path("t.mctz"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8 + 4 + static_cast<std::streamoff>(t.name().size()) + 8);
  const std::uint64_t bogus = 3;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  f.close();
  EXPECT_FALSE(read_trace_compressed_detailed(path("t.mctz"))
                   .trace.has_value());
}

TEST_F(TraceCompressTest, ReadAnyDispatchesOnMagic) {
  const Trace t = generate_app_trace(AppId::Email, 2'000, 3);
  ASSERT_TRUE(write_trace(t, path("a.mct")));
  ASSERT_TRUE(write_trace_compressed(t, path("a.mctz")));
  const auto flat = read_trace_any_detailed(path("a.mct")).trace;
  const auto comp = read_trace_any_detailed(path("a.mctz")).trace;
  ASSERT_TRUE(flat.has_value());
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(flat->size(), comp->size());
  EXPECT_FALSE(read_trace_any_detailed(path("missing.mctz")).trace.has_value());
}

TEST_F(TraceCompressTest, MixedThreadsAndModesSurvive) {
  Trace t("threads");
  for (int i = 0; i < 1000; ++i) {
    Access a;
    a.mode = i % 3 == 0 ? Mode::Kernel : Mode::User;
    a.addr = (a.mode == Mode::Kernel ? kKernelSpaceBase : 0) +
             static_cast<Addr>((i * 37) % 997) * kLineSize;
    a.type = static_cast<AccessType>(i % 3);
    a.thread = static_cast<std::uint16_t>(i % 5);
    t.push(a);
  }
  ASSERT_TRUE(write_trace_compressed(t, path("m.mctz")));
  const auto loaded = read_trace_compressed_detailed(path("m.mctz")).trace;
  ASSERT_TRUE(loaded.has_value());
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ((*loaded)[i].thread, t[i].thread) << i;
    ASSERT_EQ((*loaded)[i].addr, t[i].addr) << i;
  }
}

TEST_F(TraceCompressTest, AnyDetailedSniffsBothFormats) {
  const Trace t = generate_app_trace(AppId::Browser, 5'000, 3);
  ASSERT_TRUE(write_trace(t, path("s.mct")));
  ASSERT_TRUE(write_trace_compressed(t, path("s.mctz")));
  EXPECT_TRUE(read_trace_any_detailed(path("s.mct")).ok());
  EXPECT_TRUE(read_trace_any_detailed(path("s.mctz")).ok());

  EXPECT_EQ(read_trace_any_detailed(path("missing.mctz")).status,
            TraceIoStatus::FileNotFound);

  std::ofstream junk(path("j.mct"), std::ios::binary);
  const char garbage[32] = "neither format's magic header";
  junk.write(garbage, sizeof garbage);
  junk.close();
  EXPECT_EQ(read_trace_any_detailed(path("j.mct")).status,
            TraceIoStatus::BadMagic);

  std::ofstream tiny(path("tiny.mct"), std::ios::binary);
  tiny.write("abc", 3);
  tiny.close();
  EXPECT_EQ(read_trace_any_detailed(path("tiny.mct")).status,
            TraceIoStatus::CorruptHeader);
}

TEST_F(TraceCompressTest, CompressedDetailedClassifiesTruncation) {
  const Trace t = generate_app_trace(AppId::Browser, 5'000, 3);
  ASSERT_TRUE(write_trace_compressed(t, path("tr.mctz")));
  const auto full = std::filesystem::file_size(path("tr.mctz"));
  std::filesystem::resize_file(path("tr.mctz"), full - 16);
  const TraceReadResult r = read_trace_compressed_detailed(path("tr.mctz"));
  EXPECT_EQ(r.status, TraceIoStatus::TruncatedRecords);
  EXPECT_FALSE(r.detail.empty());
}

}  // namespace
}  // namespace mobcache

