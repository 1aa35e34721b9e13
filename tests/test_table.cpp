#include "common/table.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace mobcache {
namespace {

TEST(Table, RenderAlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  // Every line has the same length when columns are padded.
  std::size_t first_len = out.find('\n');
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t nl = out.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(nl - pos, first_len);
    pos = nl + 1;
  }
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.column_count(), 3u);
  // Must not throw and must render all columns.
  const std::string out = t.render();
  EXPECT_NE(out.find("| x"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  TablePrinter t({"k", "v"});
  t.add_row({"plain", "a,b"});
  t.add_row({"quote\"inner", "multi\nline"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inner\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
  EXPECT_EQ(csv.find("\"plain\""), std::string::npos);  // no spurious quoting
}

TEST(Table, WriteCsvRoundtrip) {
  // Per-process dir: a fixed path races other `ctest -j` processes.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mobcache_table_" + std::to_string(::getpid()));
  const std::string path = (dir / "t.csv").string();
  std::filesystem::remove_all(dir);

  TablePrinter t({"h1", "h2"});
  t.add_row({"r1", "r2"});
  ASSERT_TRUE(t.write_csv(path));  // creates the directory

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(f, line);
  EXPECT_EQ(line, "r1,r2");
  std::filesystem::remove_all(dir);
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(1000000000ull), "1,000,000,000");
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(0.5), "0.500");
}

}  // namespace
}  // namespace mobcache
