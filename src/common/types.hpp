#pragma once
/// \file types.hpp
/// Fundamental vocabulary types shared by every mobcache module.

#include <cstdint>
#include <string>
#include <string_view>

namespace mobcache {

/// Physical (or simulated-physical) byte address.
using Addr = std::uint64_t;

/// Simulated core clock cycle count.
using Cycle = std::uint64_t;

/// Privilege mode of a memory reference. The central distinction of the
/// paper: user-mode and kernel-mode streams interfere in a shared L2.
enum class Mode : std::uint8_t {
  User = 0,
  Kernel = 1,
};

/// Number of distinct Mode values (used to size per-mode arrays).
inline constexpr int kModeCount = 2;

/// Kind of memory reference as seen by the cache hierarchy.
enum class AccessType : std::uint8_t {
  Read = 0,       ///< data load
  Write = 1,      ///< data store
  InstFetch = 2,  ///< instruction fetch
};

/// Cache line size used throughout the simulated platform (bytes).
inline constexpr std::uint64_t kLineSize = 64;

/// Strip the intra-line offset from an address.
constexpr Addr line_addr(Addr a) { return a & ~(kLineSize - 1); }

/// Canonical start of the simulated kernel address space. Mirrors the
/// AArch64 split: user VAs have the top bits clear, kernel VAs set.
inline constexpr Addr kKernelSpaceBase = 0xffff'0000'0000'0000ull;

/// True when the address lies in the kernel half of the address space.
constexpr bool is_kernel_addr(Addr a) { return a >= kKernelSpaceBase; }

/// The name a result struct's field visitor gives a field: its group's
/// prefix ("l1i.", "e.", or "" at the top level) and its own name, kept
/// apart so a visit never allocates. key() joins them where a key is
/// written or an error is raised.
struct FieldName {
  const char* prefix;
  const char* name;

  std::string key() const { return std::string(prefix) + name; }
};

constexpr std::string_view to_string(Mode m) {
  return m == Mode::User ? "user" : "kernel";
}

constexpr std::string_view to_string(AccessType t) {
  switch (t) {
    case AccessType::Read: return "read";
    case AccessType::Write: return "write";
    case AccessType::InstFetch: return "ifetch";
  }
  return "?";
}

}  // namespace mobcache
