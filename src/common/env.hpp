#pragma once
/// \file env.hpp
/// Checked parsing of numeric configuration: MOBCACHE_* environment
/// variables and the tools' numeric flags and positionals.
///
/// The knobs (MOBCACHE_JOBS, MOBCACHE_TRACE_LEN, --jobs, --fault-rate, ...)
/// used to be parsed ad hoc with strtoul and friends, which silently misread
/// garbage ("12abc" -> 12, "abc" -> 0), negatives ("-1" -> huge unsigned),
/// and overflow. Every knob now goes through one parser that either yields a
/// validated value or throws EnvError naming the variable or flag, the
/// offending text, and the accepted range — a typo in a sweep script fails
/// loudly (exit 2 under guarded_main) instead of quietly running the wrong
/// experiment.

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace mobcache {

/// Thrown for unparsable or out-of-range environment or flag values. The
/// message is self-contained ("MOBCACHE_JOBS: expected an integer in
/// [1, 65536], got 'abc'") so an uncaught escape still diagnoses itself.
class EnvError : public std::runtime_error {
 public:
  explicit EnvError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses `text` as an unsigned integer in [min, max]. Only plain decimal
/// digits are accepted: empty text, trailing junk, a sign, a value outside
/// the range, or overflow throws EnvError naming `name` (the variable or
/// flag the text came from).
std::uint64_t parse_u64(const std::string& name, const std::string& text,
                        std::uint64_t min = 0, std::uint64_t max = UINT64_MAX);

/// parse_u64 for real values: a finite decimal number (digits, '.', an
/// exponent; no hex, inf or nan) in [min, max], else EnvError.
double parse_double(const std::string& name, const std::string& text,
                    double min = 0.0,
                    double max = std::numeric_limits<double>::infinity());

/// Reads `name` as an unsigned integer in [min, max]. Unset (or empty)
/// returns nullopt; anything else non-conforming — trailing junk, a sign, a
/// value outside the range, overflow — throws EnvError.
std::optional<std::uint64_t> env_u64(const char* name,
                                     std::uint64_t min = 0,
                                     std::uint64_t max = UINT64_MAX);

/// env_u64 with a fallback for the unset case.
std::uint64_t env_u64_or(const char* name, std::uint64_t fallback,
                         std::uint64_t min = 0,
                         std::uint64_t max = UINT64_MAX);

/// Reads `name` as a string; unset or empty returns nullopt.
std::optional<std::string> env_string(const char* name);

}  // namespace mobcache
