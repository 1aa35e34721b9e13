#pragma once
/// \file expect_fields.hpp
/// The tests' one comparison of simulation results: every field that the
/// struct's visitor names (SimResult, or one CacheStats) must be equal,
/// doubles bit for bit, and a mismatch names the field.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/simulator.hpp"

namespace mobcache {

template <typename T>
void expect_fields_equal(const T& a, const T& b, const std::string& what = "") {
  auto eq = [&what](FieldName n, const auto& x, const auto& y) {
    using V = std::remove_cvref_t<decltype(x)>;
    if constexpr (std::is_floating_point_v<V>) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x),
                std::bit_cast<std::uint64_t>(y))
          << what << ' ' << n.key() << ": " << x << " vs " << y;
    } else {
      EXPECT_EQ(x, y) << what << ' ' << n.key();
    }
  };
  if constexpr (std::is_same_v<T, SimResult>) {
    SimResult::visit(eq, a, b);
  } else {
    T::visit(eq, "", a, b);
  }
}

}  // namespace mobcache
