#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/bench_harness.hpp"

namespace mobcache {
namespace {

/// RAII env var: every test leaves the environment as it found it, so the
/// MOBCACHE_* knobs never leak between tests (several suites read them).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

constexpr const char* kVar = "MOBCACHE_TEST_ENV_U64";

TEST(EnvU64, UnsetReturnsNullopt) {
  ScopedEnv e(kVar, nullptr);
  EXPECT_FALSE(env_u64(kVar).has_value());
}

TEST(EnvU64, EmptyReturnsNullopt) {
  ScopedEnv e(kVar, "");
  EXPECT_FALSE(env_u64(kVar).has_value());
}

TEST(EnvU64, ParsesPlainDecimal) {
  ScopedEnv e(kVar, "12345");
  const auto v = env_u64(kVar);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 12345u);
}

TEST(EnvU64, ParsesExtremes) {
  {
    ScopedEnv e(kVar, "0");
    EXPECT_EQ(env_u64(kVar).value(), 0u);
  }
  {
    ScopedEnv e(kVar, "18446744073709551615");
    EXPECT_EQ(env_u64(kVar).value(), UINT64_MAX);
  }
}

TEST(EnvU64, RejectsGarbage) {
  ScopedEnv e(kVar, "abc");
  EXPECT_THROW(env_u64(kVar), EnvError);
}

TEST(EnvU64, RejectsTrailingJunk) {
  // The strtoul-era parsers read "12abc" as 12; that silent misread is the
  // bug this parser exists to kill.
  ScopedEnv e(kVar, "12abc");
  EXPECT_THROW(env_u64(kVar), EnvError);
}

TEST(EnvU64, RejectsSigns) {
  {
    ScopedEnv e(kVar, "-3");
    EXPECT_THROW(env_u64(kVar), EnvError);
  }
  {
    ScopedEnv e(kVar, "+3");
    EXPECT_THROW(env_u64(kVar), EnvError);
  }
}

TEST(EnvU64, RejectsOverflow) {
  ScopedEnv e(kVar, "18446744073709551616");  // UINT64_MAX + 1
  EXPECT_THROW(env_u64(kVar), EnvError);
}

TEST(EnvU64, EnforcesRange) {
  ScopedEnv e(kVar, "100");
  EXPECT_EQ(env_u64(kVar, 1, 100).value(), 100u);
  EXPECT_EQ(env_u64(kVar, 100, 100).value(), 100u);
  EXPECT_THROW(env_u64(kVar, 101, 200), EnvError);
  EXPECT_THROW(env_u64(kVar, 1, 99), EnvError);
}

TEST(EnvU64, ErrorMessageIsSelfContained) {
  ScopedEnv e(kVar, "zzz");
  try {
    env_u64(kVar, 1, 64);
    FAIL() << "expected EnvError";
  } catch (const EnvError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find(kVar), std::string::npos) << msg;
    EXPECT_NE(msg.find("zzz"), std::string::npos) << msg;
  }
}

TEST(EnvU64Or, FallbackOnlyWhenUnset) {
  {
    ScopedEnv e(kVar, nullptr);
    EXPECT_EQ(env_u64_or(kVar, 77), 77u);
  }
  {
    ScopedEnv e(kVar, "5");
    EXPECT_EQ(env_u64_or(kVar, 77), 5u);
  }
  {
    // A set-but-invalid value must throw, not fall back: falling back would
    // silently run the wrong experiment.
    ScopedEnv e(kVar, "nope");
    EXPECT_THROW(env_u64_or(kVar, 77), EnvError);
  }
}

TEST(ParseU64, AcceptsPlainDigitsInRange) {
  EXPECT_EQ(parse_u64("--jobs", "0"), 0u);
  EXPECT_EQ(parse_u64("--jobs", "65536", 0, 65536), 65536u);
  EXPECT_EQ(parse_u64("records", "18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64, RejectsWhatStrtoullWouldMisread) {
  for (const char* bad : {"", "abc", "12abc", " 12", "-1", "+1", "0x10",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse_u64("--jobs", bad), EnvError) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_u64("--jobs", "65537", 0, 65536), EnvError);
}

TEST(ParseU64, ErrorNamesTheFlagAndTheText) {
  try {
    parse_u64("--point-deadline-ms", "abc");
    FAIL() << "expected EnvError";
  } catch (const EnvError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("--point-deadline-ms"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'abc'"), std::string::npos) << msg;
  }
}

/// bench_fail_points over argv = {prog, "--fail-points=<list>"}.
std::vector<std::size_t> fail_points(const std::string& list,
                                     std::size_t points) {
  std::string prog = "bench";
  std::string arg = "--fail-points=" + list;
  char* argv[] = {prog.data(), arg.data()};
  return bench_fail_points(2, argv, points);
}

TEST(ParseU64, FailPointsAreIndicesBelowThePointCount) {
  EXPECT_EQ(fail_points("3,7", 10), (std::vector<std::size_t>{3, 7}));
  EXPECT_EQ(fail_points("5", 10), (std::vector<std::size_t>{5}));
  EXPECT_EQ(fail_points("0,9", 10), (std::vector<std::size_t>{0, 9}));
  for (const char* bad : {"-1", "99999999999999999999999", "10", " 3", "3,",
                          ",3", "3,,7", "", "0x3"}) {
    try {
      fail_points(bad, 10);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const EnvError& err) {
      EXPECT_NE(std::string(err.what()).find("--fail-points: expected"),
                std::string::npos)
          << err.what();
    }
  }
}

TEST(ParseDouble, AcceptsDecimalAndExponentForms) {
  EXPECT_EQ(parse_double("--fault-rate", "0.002", 0.0, 1.0), 0.002);
  EXPECT_EQ(parse_double("--fault-rate", "1e-4", 0.0, 1.0), 1e-4);
  EXPECT_EQ(parse_double("--fault-rate", "1", 0.0, 1.0), 1.0);
  EXPECT_EQ(parse_double("--min-speedup", "5"), 5.0);
}

TEST(ParseDouble, RejectsGarbageNonFiniteAndRange) {
  for (const char* bad : {"", "abc", "0.5x", " 1", "inf", "nan", "0x1p3",
                          "1e999", "--1"}) {
    EXPECT_THROW(parse_double("--min-speedup", bad), EnvError)
        << "'" << bad << "'";
  }
  EXPECT_THROW(parse_double("--fault-rate", "1.5", 0.0, 1.0), EnvError);
  EXPECT_THROW(parse_double("--fault-rate", "-0.1", 0.0, 1.0), EnvError);
  EXPECT_THROW(parse_double("--min-speedup", "-1"), EnvError);
}

TEST(EnvString, UnsetAndEmptyAreNullopt) {
  {
    ScopedEnv e(kVar, nullptr);
    EXPECT_FALSE(env_string(kVar).has_value());
  }
  {
    ScopedEnv e(kVar, "");
    EXPECT_FALSE(env_string(kVar).has_value());
  }
  {
    ScopedEnv e(kVar, "/some/path");
    EXPECT_EQ(env_string(kVar).value(), "/some/path");
  }
}

}  // namespace
}  // namespace mobcache
