#include "common/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mobcache {

namespace {

std::string range_text(std::uint64_t min, std::uint64_t max) {
  std::string out = "[" + std::to_string(min) + ", ";
  out += max == UINT64_MAX ? std::string("2^64)") : std::to_string(max) + "]";
  return out;
}

[[noreturn]] void reject(const std::string& name, const std::string& text,
                         const char* what, const std::string& range) {
  throw EnvError(name + ": expected " + what + " in " + range + ", got '" +
                 text + "'");
}

/// True when `text` is non-empty and every character is in `allowed`.
/// strtoull/strtod accept leading whitespace, signs, hex prefixes and
/// inf/nan; a config knob should accept none of them.
bool only(const std::string& text, const char* allowed) {
  return !text.empty() &&
         text.find_first_not_of(allowed) == std::string::npos;
}

}  // namespace

std::uint64_t parse_u64(const std::string& name, const std::string& text,
                        std::uint64_t min, std::uint64_t max) {
  if (!only(text, "0123456789"))
    reject(name, text, "an integer", range_text(min, max));
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < min || v > max)
    reject(name, text, "an integer", range_text(min, max));
  return static_cast<std::uint64_t>(v);
}

double parse_double(const std::string& name, const std::string& text,
                    double min, double max) {
  char range[64];
  std::snprintf(range, sizeof range, "[%g, %g]", min, max);
  if (!only(text, "0123456789.eE+-")) reject(name, text, "a number", range);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v < min ||
      v > max)
    reject(name, text, "a number", range);
  return v;
}

std::optional<std::uint64_t> env_u64(const char* name, std::uint64_t min,
                                     std::uint64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return parse_u64(name, raw, min, max);
}

std::uint64_t env_u64_or(const char* name, std::uint64_t fallback,
                         std::uint64_t min, std::uint64_t max) {
  return env_u64(name, min, max).value_or(fallback);
}

std::optional<std::string> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return std::string(raw);
}

}  // namespace mobcache
