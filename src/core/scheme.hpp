#pragma once
/// \file scheme.hpp
/// Factory for the L2 designs compared in the evaluation (experiment E9's
/// columns). The default SchemeParams encode the paper-reconstructed
/// configuration choices; benches override fields to run sweeps.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/drowsy_l2.hpp"
#include "core/victim_cache_l2.hpp"
#include "core/dynamic_partitioned_l2.hpp"
#include "core/l2_interface.hpp"
#include "core/multi_retention_l2.hpp"
#include "core/shared_l2.hpp"
#include "core/static_partitioned_l2.hpp"

namespace mobcache {

enum class SchemeKind : std::uint8_t {
  BaselineSram,     ///< shared 2 MB 16-way SRAM (the phone's stock L2)
  ShrunkSram,       ///< naive shrink: shared 512 KB SRAM, still interfering
  SharedStt,        ///< unpartitioned 2 MB high-retention STT-RAM
  DrowsySram,       ///< 2 MB SRAM with drowsy (low-voltage standby) lines
  VictimSram,       ///< 2 MB SRAM + 64-entry victim buffer (anti-conflict)
  StaticPartSram,   ///< SP:    user + kernel SRAM segments, shrunk total
  StaticPartMrstt,  ///< SP-MRSTT: multi-retention STT-RAM segments
  DynamicSram,      ///< DP:    one array, way gating, SRAM
  DynamicStt,       ///< DP-STT: way gating + short-retention STT-RAM
};

inline constexpr int kSchemeCount = 9;

const char* scheme_name(SchemeKind k);

/// Tunables with paper-reconstructed defaults.
struct SchemeParams {
  // Shared baselines.
  std::uint64_t baseline_bytes = 2ull << 20;
  std::uint32_t baseline_assoc = 16;
  std::uint64_t shrunk_bytes = 512ull << 10;
  std::uint32_t shrunk_assoc = 8;

  // Static partition: interference-free segments can be far smaller than
  // the shared baseline (E3 sweeps this; defaults are the chosen point).
  std::uint64_t sp_user_bytes = 1024ull << 10;
  std::uint32_t sp_user_assoc = 8;
  std::uint64_t sp_kernel_bytes = 256ull << 10;
  std::uint32_t sp_kernel_assoc = 8;

  // Multi-retention choice (validated by E5/E6): kernel blocks die young →
  // short retention; user blocks persist → mid retention.
  RetentionClass mrstt_user = RetentionClass::Mid;
  RetentionClass mrstt_kernel = RetentionClass::Lo;
  RefreshPolicy refresh = RefreshPolicy::ScrubDirty;

  // Dynamic partition.
  std::uint64_t dp_epoch_accesses = 10'000;
  MonitorKind dp_monitor = MonitorKind::ShadowUtility;
  double dp_miss_slack = 0.05;
  RetentionClass dp_retention = RetentionClass::Lo;

  // Drowsy baseline.
  Cycle drowsy_window = 4000;

  ReplKind repl = ReplKind::Lru;
  bool xor_index = false;
  /// Stream write-bypass for the STT-RAM designs (E18).
  bool stt_write_bypass = false;

  /// Fault injection / ECC / way-disable repair (disabled by default — a
  /// disabled config keeps every scheme bit-identical to a fault-free
  /// build). Applied to all SharedL2-array schemes; partitioned designs get
  /// one injector per segment with derived seeds (kernel = seed + 1) so the
  /// two arrays draw independent fault streams. Drowsy and victim schemes
  /// are SRAM-only baselines and are left unfaulted (documented in
  /// docs/RELIABILITY.md).
  FaultConfig fault;
};

std::unique_ptr<L2Interface> build_scheme(SchemeKind kind,
                                          const SchemeParams& p = {});

/// The scheme list of the headline comparison (E9), baseline first.
std::vector<SchemeKind> headline_schemes();

/// The CLI scheme vocabulary of mobcache_simrun:
/// base shrunk sharedstt drowsy victim sp spmrstt dp dpstt. Returns nullopt
/// for anything else (including "all", which is a selection, not a kind).
std::optional<SchemeKind> parse_scheme_kind(std::string_view s);

}  // namespace mobcache
