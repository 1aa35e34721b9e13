#pragma once
/// \file flat_json.hpp
/// Minimal parser for the *flat* JSON objects this codebase writes itself:
/// string or bare-number values only, one nesting level, no arrays. It
/// exists so on-disk artifacts (result-store records) can be read back
/// without growing a real JSON dependency — every document it must accept
/// was produced by JsonWriter, and anything outside that grammar is
/// *supposed* to be rejected. Returns false on anything unexpected: a
/// reject is a corrupt record, never a crash.
///
/// Escape handling mirrors json_escape(): \" \\ \n \t \r \b \f plus \u00xx
/// for control bytes. Numbers are kept as text; get_u64/get_dbl parse on
/// demand and type-check (a quoted number is not a number).

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace mobcache {

class FlatParser {
 public:
  /// Parses one complete object; trailing non-whitespace fails the parse.
  bool parse(const std::string& text);

  /// True when `key` was present (string or number).
  bool has(const char* key) const;

  bool get_str(const char* key, std::string& out) const;
  bool get_u64(const char* key, std::uint64_t& out) const;
  bool get_dbl(const char* key, double& out) const;

 private:
  void skip_ws();
  bool consume(char c);
  bool parse_string(std::string& out);

  const char* p_ = nullptr;
  std::map<std::string, std::pair<std::string, bool>> fields_;
};

}  // namespace mobcache
