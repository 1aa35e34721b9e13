#include "core/scheme.hpp"

#include <stdexcept>

namespace mobcache {

const char* scheme_name(SchemeKind k) {
  switch (k) {
    case SchemeKind::BaselineSram: return "Base-SRAM-2MB";
    case SchemeKind::ShrunkSram: return "Shrunk-SRAM-512KB";
    case SchemeKind::SharedStt: return "Shared-STT-2MB";
    case SchemeKind::DrowsySram: return "Drowsy-SRAM-2MB";
    case SchemeKind::VictimSram: return "Victim-SRAM-2MB";
    case SchemeKind::StaticPartSram: return "SP-SRAM";
    case SchemeKind::StaticPartMrstt: return "SP-MRSTT";
    case SchemeKind::DynamicSram: return "DP-SRAM";
    case SchemeKind::DynamicStt: return "DP-STT";
  }
  return "?";
}

std::optional<SchemeKind> parse_scheme_kind(std::string_view s) {
  if (s == "base") return SchemeKind::BaselineSram;
  if (s == "shrunk") return SchemeKind::ShrunkSram;
  if (s == "sharedstt") return SchemeKind::SharedStt;
  if (s == "drowsy") return SchemeKind::DrowsySram;
  if (s == "victim") return SchemeKind::VictimSram;
  if (s == "sp") return SchemeKind::StaticPartSram;
  if (s == "spmrstt") return SchemeKind::StaticPartMrstt;
  if (s == "dp") return SchemeKind::DynamicSram;
  if (s == "dpstt") return SchemeKind::DynamicStt;
  return std::nullopt;
}

namespace {

CacheConfig shared_geometry(const char* name, std::uint64_t bytes,
                            std::uint32_t assoc, ReplKind repl,
                            bool xor_index = false) {
  CacheConfig c;
  c.name = name;
  c.size_bytes = bytes;
  c.assoc = assoc;
  c.repl = repl;
  c.xor_index = xor_index;
  return c;
}

/// Per-segment fault config with a derived seed, so the two arrays of a
/// partitioned design draw independent (but reproducible) fault streams.
FaultConfig derived_fault(const FaultConfig& f, std::uint64_t salt) {
  FaultConfig out = f;
  out.seed = f.seed + salt;
  return out;
}

}  // namespace

std::unique_ptr<L2Interface> build_scheme(SchemeKind kind,
                                          const SchemeParams& p) {
  switch (kind) {
    case SchemeKind::BaselineSram: {
      SharedL2Config c;
      c.cache = shared_geometry("L2", p.baseline_bytes, p.baseline_assoc,
                                p.repl, p.xor_index);
      c.tech = TechKind::Sram;
      c.fault = p.fault;
      return std::make_unique<SharedL2>(c);
    }
    case SchemeKind::ShrunkSram: {
      SharedL2Config c;
      c.cache =
          shared_geometry("L2", p.shrunk_bytes, p.shrunk_assoc, p.repl);
      c.tech = TechKind::Sram;
      c.fault = p.fault;
      return std::make_unique<SharedL2>(c);
    }
    case SchemeKind::SharedStt: {
      SharedL2Config c;
      c.cache = shared_geometry("L2", p.baseline_bytes, p.baseline_assoc,
                                p.repl);
      c.tech = TechKind::SttRam;
      c.retention = RetentionClass::Hi;
      c.refresh = p.refresh;
      c.bypass = p.stt_write_bypass;
      c.fault = p.fault;
      return std::make_unique<SharedL2>(c);
    }
    case SchemeKind::DrowsySram:
      return std::make_unique<DrowsyL2>(shared_geometry(
          "L2", p.baseline_bytes, p.baseline_assoc, p.repl));
    case SchemeKind::VictimSram:
      return std::make_unique<VictimCacheL2>(shared_geometry(
          "L2", p.baseline_bytes, p.baseline_assoc, p.repl));
    case SchemeKind::StaticPartSram: {
      StaticPartitionConfig c;
      c.user = sram_segment(p.sp_user_bytes, p.sp_user_assoc);
      c.kernel = sram_segment(p.sp_kernel_bytes, p.sp_kernel_assoc);
      c.user.cache.repl = c.kernel.cache.repl = p.repl;
      c.user.fault = p.fault;
      c.kernel.fault = derived_fault(p.fault, 1);
      return std::make_unique<StaticPartitionedL2>(c);
    }
    case SchemeKind::StaticPartMrstt: {
      StaticPartitionConfig c = make_mrstt_config(
          p.sp_user_bytes, p.sp_user_assoc, p.mrstt_user, p.sp_kernel_bytes,
          p.sp_kernel_assoc, p.mrstt_kernel, p.refresh);
      c.user.cache.repl = c.kernel.cache.repl = p.repl;
      c.user.bypass = c.kernel.bypass = p.stt_write_bypass;
      c.user.fault = p.fault;
      c.kernel.fault = derived_fault(p.fault, 1);
      return std::make_unique<StaticPartitionedL2>(c);
    }
    case SchemeKind::DynamicSram:
    case SchemeKind::DynamicStt:
      return std::make_unique<DynamicPartitionedL2>(
          dynamic_scheme_config(kind, p));
  }
  return nullptr;
}

DynamicL2Config dynamic_scheme_config(SchemeKind kind,
                                      const SchemeParams& p) {
  if (kind != SchemeKind::DynamicSram && kind != SchemeKind::DynamicStt)
    throw std::invalid_argument("dynamic_scheme_config: not a DP scheme");
  DynamicL2Config c;
  c.cache =
      shared_geometry("L2", p.baseline_bytes, p.baseline_assoc, p.repl);
  c.tech =
      kind == SchemeKind::DynamicStt ? TechKind::SttRam : TechKind::Sram;
  c.refresh = p.refresh;
  c.fault = p.fault;
  return c;
}

std::vector<SchemeKind> headline_schemes() {
  return {SchemeKind::BaselineSram,    SchemeKind::ShrunkSram,
          SchemeKind::SharedStt,       SchemeKind::DrowsySram,
          SchemeKind::VictimSram,      SchemeKind::StaticPartSram,
          SchemeKind::StaticPartMrstt, SchemeKind::DynamicSram,
          SchemeKind::DynamicStt};
}

}  // namespace mobcache
