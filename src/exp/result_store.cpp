#include "exp/result_store.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/env.hpp"
#include "common/flat_json.hpp"
#include "common/json_writer.hpp"
#include "energy/technology.hpp"

namespace mobcache {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

ContentHasher& ContentHasher::mix(std::uint64_t v) {
  unsigned char bytes[8];
  std::memcpy(bytes, &v, sizeof bytes);
  h_ = fnv1a(bytes, sizeof bytes, h_);
  return *this;
}

ContentHasher& ContentHasher::mix(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v, "binary64 expected");
  std::memcpy(&bits, &v, sizeof bits);
  return mix(bits);
}

ContentHasher& ContentHasher::mix(const std::string& s) {
  // Length first, so ("ab","c") never collides with ("a","bc").
  mix(static_cast<std::uint64_t>(s.size()));
  h_ = fnv1a(s.data(), s.size(), h_);
  return *this;
}

std::uint64_t hash_cache_config(const CacheConfig& c) {
  // `name` is cosmetic (it labels diagnostics) and deliberately excluded:
  // two geometrically identical caches simulate identically.
  return ContentHasher()
      .mix(c.size_bytes)
      .mix(std::uint64_t{c.assoc})
      .mix(c.line_size)
      .mix(static_cast<std::uint64_t>(c.repl))
      .mix(static_cast<std::uint64_t>(c.xor_index))
      .digest();
}

std::uint64_t hash_scheme_params(const SchemeParams& p) {
  return ContentHasher()
      .mix(p.baseline_bytes)
      .mix(std::uint64_t{p.baseline_assoc})
      .mix(p.shrunk_bytes)
      .mix(std::uint64_t{p.shrunk_assoc})
      .mix(p.sp_user_bytes)
      .mix(std::uint64_t{p.sp_user_assoc})
      .mix(p.sp_kernel_bytes)
      .mix(std::uint64_t{p.sp_kernel_assoc})
      .mix(static_cast<std::uint64_t>(p.mrstt_user))
      .mix(static_cast<std::uint64_t>(p.mrstt_kernel))
      .mix(static_cast<std::uint64_t>(p.refresh))
      .mix(p.dp_epoch_accesses)
      .mix(static_cast<std::uint64_t>(p.dp_monitor))
      .mix(p.dp_miss_slack)
      .mix(static_cast<std::uint64_t>(p.dp_retention))
      .mix(std::uint64_t{p.drowsy_window})
      .mix(static_cast<std::uint64_t>(p.repl))
      .mix(static_cast<std::uint64_t>(p.xor_index))
      .mix(static_cast<std::uint64_t>(p.stt_write_bypass))
      .mix(p.fault.write_fault_prob)
      .mix(p.fault.transient_per_mcycle)
      .mix(p.fault.retention_sigma)
      .mix(static_cast<std::uint64_t>(p.fault.ecc))
      .mix(std::uint64_t{p.fault.way_disable_threshold})
      .mix(p.fault.seed)
      .digest();
}

std::uint64_t hash_sim_options(const SimOptions& o) {
  return ContentHasher()
      .mix(hash_cache_config(o.hierarchy.l1i))
      .mix(hash_cache_config(o.hierarchy.l1d))
      .mix(std::uint64_t{o.hierarchy.l1_hit_latency})
      .mix(static_cast<std::uint64_t>(o.hierarchy.prefetch.enabled))
      .mix(std::uint64_t{o.hierarchy.prefetch.degree})
      .mix(std::uint64_t{o.hierarchy.prefetch.table_entries})
      .mix(static_cast<std::uint64_t>(o.hierarchy.inclusive_l2))
      .mix(o.timing.base_cpi)
      .digest();
}

std::uint64_t hash_technology(const TechnologyConfig& t) {
  return ContentHasher()
      .mix(t.sram_leak_mw_per_kb)
      .mix(t.sram_read_nj_2mb)
      .mix(t.sram_write_nj_2mb)
      .mix(t.stt_leak_factor)
      .mix(t.stt_read_factor)
      .mix(t.stt_write_nj_hi_2mb)
      .mix(t.write_energy_floor)
      .mix(t.dram_access_nj)
      .mix(t.cycle_ns)
      .mix(t.temperature_k)
      .digest();
}

std::uint64_t hash_trace(const Trace& t) {
  // Field-wise, not raw bytes: Access carries 4 padding bytes whose content
  // is unspecified. The fingerprint covers every record, so a trace loaded
  // from disk and a regenerated one key identically iff they really agree.
  ContentHasher h;
  h.mix(t.name());
  h.mix(static_cast<std::uint64_t>(t.size()));
  for (const Access& a : t.accesses()) {
    h.mix(a.addr);
    h.mix(static_cast<std::uint64_t>(a.thread) |
          (static_cast<std::uint64_t>(a.type) << 16) |
          (static_cast<std::uint64_t>(a.mode) << 24));
  }
  return h.digest();
}

std::uint64_t result_point_key(std::uint64_t design_hash,
                               std::uint64_t trace_hash,
                               std::uint64_t options_hash,
                               std::uint64_t technology_hash,
                               std::uint64_t point_seed) {
  return ContentHasher()
      .mix(kResultSchemaVersion)
      .mix(design_hash)
      .mix(trace_hash)
      .mix(options_hash)
      .mix(technology_hash)
      .mix(point_seed)
      .digest();
}

// ---------------------------------------------------------------------------
// Record (de)serialization — exact round trip
// ---------------------------------------------------------------------------

namespace {

void put_u64(std::string& out, const char* key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
  out += ',';
}

void put_dbl(std::string& out, const char* key, double v) {
  // 17 significant digits uniquely identify a binary64; strtod's correct
  // rounding reproduces the exact bit pattern on parse.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += '"';
  out += key;
  out += "\":";
  out += buf;
  out += ',';
}

void put_str(std::string& out, const char* key, const std::string& v) {
  out += '"';
  out += key;
  out += "\":\"";
  out += json_escape(v);
  out += "\",";
}

void put_cache_stats(std::string& out, const char* prefix,
                     const CacheStats& s) {
  auto key = [&](const char* field) { return std::string(prefix) + field; };
  put_u64(out, key("accesses_user").c_str(), s.accesses[0]);
  put_u64(out, key("accesses_kernel").c_str(), s.accesses[1]);
  put_u64(out, key("hits_user").c_str(), s.hits[0]);
  put_u64(out, key("hits_kernel").c_str(), s.hits[1]);
  put_u64(out, key("store_hits").c_str(), s.store_hits);
  put_u64(out, key("fills").c_str(), s.fills);
  put_u64(out, key("evictions").c_str(), s.evictions);
  put_u64(out, key("writebacks").c_str(), s.writebacks);
  put_u64(out, key("cross_mode_evictions").c_str(), s.cross_mode_evictions);
  put_u64(out, key("expired_blocks").c_str(), s.expired_blocks);
  put_u64(out, key("expired_dirty").c_str(), s.expired_dirty);
  put_u64(out, key("refreshes").c_str(), s.refreshes);
  put_u64(out, key("prefetch_fills").c_str(), s.prefetch_fills);
  put_u64(out, key("useful_prefetches").c_str(), s.useful_prefetches);
  put_u64(out, key("write_faults").c_str(), s.write_faults);
  put_u64(out, key("transient_upsets").c_str(), s.transient_upsets);
  put_u64(out, key("ecc_corrections").c_str(), s.ecc_corrections);
  put_u64(out, key("fault_losses").c_str(), s.fault_losses);
  put_u64(out, key("fault_lost_dirty").c_str(), s.fault_lost_dirty);
  put_u64(out, key("scrub_repairs").c_str(), s.scrub_repairs);
  put_u64(out, key("silent_faults").c_str(), s.silent_faults);
}

// Record payloads parse with FlatParser (common/flat_json.hpp): the store
// only ever consumes JSON this codebase wrote itself.

bool read_cache_stats(const FlatParser& f, const char* prefix, CacheStats& s) {
  auto key = [&](const char* field) { return std::string(prefix) + field; };
  return f.get_u64(key("accesses_user").c_str(), s.accesses[0]) &&
         f.get_u64(key("accesses_kernel").c_str(), s.accesses[1]) &&
         f.get_u64(key("hits_user").c_str(), s.hits[0]) &&
         f.get_u64(key("hits_kernel").c_str(), s.hits[1]) &&
         f.get_u64(key("store_hits").c_str(), s.store_hits) &&
         f.get_u64(key("fills").c_str(), s.fills) &&
         f.get_u64(key("evictions").c_str(), s.evictions) &&
         f.get_u64(key("writebacks").c_str(), s.writebacks) &&
         f.get_u64(key("cross_mode_evictions").c_str(),
                   s.cross_mode_evictions) &&
         f.get_u64(key("expired_blocks").c_str(), s.expired_blocks) &&
         f.get_u64(key("expired_dirty").c_str(), s.expired_dirty) &&
         f.get_u64(key("refreshes").c_str(), s.refreshes) &&
         f.get_u64(key("prefetch_fills").c_str(), s.prefetch_fills) &&
         f.get_u64(key("useful_prefetches").c_str(), s.useful_prefetches) &&
         f.get_u64(key("write_faults").c_str(), s.write_faults) &&
         f.get_u64(key("transient_upsets").c_str(), s.transient_upsets) &&
         f.get_u64(key("ecc_corrections").c_str(), s.ecc_corrections) &&
         f.get_u64(key("fault_losses").c_str(), s.fault_losses) &&
         f.get_u64(key("fault_lost_dirty").c_str(), s.fault_lost_dirty) &&
         f.get_u64(key("scrub_repairs").c_str(), s.scrub_repairs) &&
         f.get_u64(key("silent_faults").c_str(), s.silent_faults);
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, key);
  return buf;
}

}  // namespace

std::string result_to_record_json(const SimResult& r) {
  std::string out = "{";
  put_str(out, "workload", r.workload);
  put_str(out, "scheme", r.scheme);
  put_u64(out, "records", r.records);
  put_u64(out, "cycles", r.cycles);
  put_dbl(out, "cpi", r.cpi);
  put_cache_stats(out, "l1i.", r.l1i);
  put_cache_stats(out, "l1d.", r.l1d);
  put_cache_stats(out, "l2.", r.l2);
  put_dbl(out, "e.leakage_nj", r.l2_energy.leakage_nj);
  put_dbl(out, "e.read_nj", r.l2_energy.read_nj);
  put_dbl(out, "e.write_nj", r.l2_energy.write_nj);
  put_dbl(out, "e.refresh_nj", r.l2_energy.refresh_nj);
  put_dbl(out, "e.dram_nj", r.l2_energy.dram_nj);
  put_dbl(out, "e.ecc_nj", r.l2_energy.ecc_nj);
  put_dbl(out, "l1_energy_nj", r.l1_energy_nj);
  put_u64(out, "l2_capacity_bytes", r.l2_capacity_bytes);
  put_dbl(out, "l2_avg_enabled_bytes", r.l2_avg_enabled_bytes);
  put_u64(out, "l2_quarantined_ways", r.l2_quarantined_ways);
  put_u64(out, "stall_l2_hit_cycles", r.stall_l2_hit_cycles);
  put_u64(out, "stall_l2_miss_cycles", r.stall_l2_miss_cycles);
  put_u64(out, "prefetches_issued", r.prefetches_issued);
  out.back() = '}';  // replace the trailing comma
  return out;
}

std::optional<SimResult> result_from_record_json(const std::string& json) {
  FlatParser f;
  if (!f.parse(json)) return std::nullopt;
  SimResult r;
  std::uint64_t quarantined = 0;
  const bool ok =
      f.get_str("workload", r.workload) && f.get_str("scheme", r.scheme) &&
      f.get_u64("records", r.records) && f.get_u64("cycles", r.cycles) &&
      f.get_dbl("cpi", r.cpi) && read_cache_stats(f, "l1i.", r.l1i) &&
      read_cache_stats(f, "l1d.", r.l1d) &&
      read_cache_stats(f, "l2.", r.l2) &&
      f.get_dbl("e.leakage_nj", r.l2_energy.leakage_nj) &&
      f.get_dbl("e.read_nj", r.l2_energy.read_nj) &&
      f.get_dbl("e.write_nj", r.l2_energy.write_nj) &&
      f.get_dbl("e.refresh_nj", r.l2_energy.refresh_nj) &&
      f.get_dbl("e.dram_nj", r.l2_energy.dram_nj) &&
      f.get_dbl("e.ecc_nj", r.l2_energy.ecc_nj) &&
      f.get_dbl("l1_energy_nj", r.l1_energy_nj) &&
      f.get_u64("l2_capacity_bytes", r.l2_capacity_bytes) &&
      f.get_dbl("l2_avg_enabled_bytes", r.l2_avg_enabled_bytes) &&
      f.get_u64("l2_quarantined_ways", quarantined) &&
      f.get_u64("stall_l2_hit_cycles", r.stall_l2_hit_cycles) &&
      f.get_u64("stall_l2_miss_cycles", r.stall_l2_miss_cycles) &&
      f.get_u64("prefetches_issued", r.prefetches_issued);
  if (!ok || quarantined > UINT32_MAX) return std::nullopt;
  r.l2_quarantined_ways = static_cast<std::uint32_t>(quarantined);
  return r;
}

std::string failure_to_record_json(const StoredFailure& f) {
  std::string out = "{";
  // The marker field comes first and is what dispatches payload parsing; a
  // value payload can never contain it (no SimResult field is named
  // "poison").
  put_u64(out, "poison", 1);
  put_str(out, "error_type", f.error_type);
  put_str(out, "message", f.message);
  out.back() = '}';  // replace the trailing comma
  return out;
}

std::optional<StoredFailure> failure_from_record_json(const std::string& json) {
  FlatParser f;
  if (!f.parse(json)) return std::nullopt;
  std::uint64_t marker = 0;
  if (!f.get_u64("poison", marker) || marker != 1) return std::nullopt;
  StoredFailure out;
  if (!f.get_str("error_type", out.error_type) ||
      !f.get_str("message", out.message))
    return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

/// Record file layout: header line + payload line. The header names the key
/// and carries an FNV-1a checksum of the exact payload bytes; a record that
/// fails any check (torn write, truncation, bit rot, schema drift) is
/// treated as absent.
std::string render_record(std::uint64_t key, const std::string& payload) {
  std::string out = "{\"format\":\"mobcache-result-store\",\"schema\":";
  out += std::to_string(kResultSchemaVersion);
  out += ",\"key\":\"";
  out += key_hex(key);
  out += "\",\"payload_fnv\":\"";
  out += key_hex(fnv1a(payload.data(), payload.size()));
  out += "\"}\n";
  out += payload;
  out += '\n';
  return out;
}

/// A validated record: exactly one of result/failure is set (value record
/// vs poison record).
struct ParsedRecord {
  std::uint64_t key = 0;
  std::optional<SimResult> result;
  std::optional<StoredFailure> failure;
};

bool parse_record(const std::string& text, ParsedRecord& out) {
  std::uint64_t& key = out.key;
  const std::size_t nl = text.find('\n');
  if (nl == std::string::npos) return false;
  // The payload line must be newline-terminated — a record whose trailing
  // newline is missing was truncated mid-write.
  if (text.empty() || text.back() != '\n') return false;
  const std::string header = text.substr(0, nl);
  const std::string payload = text.substr(nl + 1, text.size() - nl - 2);

  FlatParser h;
  if (!h.parse(header)) return false;
  std::string format, key_text, fnv_text;
  std::uint64_t schema = 0;
  if (!h.get_str("format", format) || format != "mobcache-result-store")
    return false;
  if (!h.get_u64("schema", schema) || schema != kResultSchemaVersion)
    return false;
  if (!h.get_str("key", key_text) || !h.get_str("payload_fnv", fnv_text))
    return false;
  char* end = nullptr;
  key = std::strtoull(key_text.c_str(), &end, 16);
  if (end == nullptr || *end != '\0' || key_text.size() != 16) return false;
  const std::uint64_t want_fnv = std::strtoull(fnv_text.c_str(), &end, 16);
  if (end == nullptr || *end != '\0' || fnv_text.size() != 16) return false;
  if (fnv1a(payload.data(), payload.size()) != want_fnv) return false;

  // Checksum passed — dispatch on payload flavour. Poison first: its marker
  // check is cheap and unambiguous.
  if (std::optional<StoredFailure> f = failure_from_record_json(payload)) {
    out.failure = std::move(*f);
    return true;
  }
  std::optional<SimResult> r = result_from_record_json(payload);
  if (!r) return false;
  out.result = std::move(*r);
  return true;
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!fs::is_directory(dir_, ec)) {
    throw std::runtime_error("result store: cannot create directory '" +
                             dir_ + "'");
  }
  load_existing();
}

std::unique_ptr<ResultStore> ResultStore::from_env() {
  if (const auto dir = env_string("MOBCACHE_RESULT_STORE"))
    return std::make_unique<ResultStore>(*dir);
  return nullptr;
}

void ResultStore::load_existing() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(".tmp-", 0) == 0) {
      // Leftover from a killed writer; the rename never happened, so the
      // record it was building was re-queued anyway.
      fs::remove(entry.path(), ec);
      continue;
    }
    if (name.size() < 2 || name[0] != 'r' ||
        entry.path().extension() != ".json")
      continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    ParsedRecord rec;
    if (in && parse_record(buf.str(), rec)) {
      if (rec.result) {
        mem_.emplace(rec.key, std::move(*rec.result));
        ++stats_.loaded;
      } else {
        poison_.emplace(rec.key, std::move(*rec.failure));
        ++stats_.poisoned_loaded;
      }
    } else {
      ++stats_.corrupt_skipped;
    }
  }
}

std::optional<SimResult> ResultStore::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = mem_.find(key);
  if (it == mem_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void ResultStore::persist_record(std::uint64_t key,
                                 const std::string& payload) {
  const std::string record = render_record(key, payload);
  const std::string final_path =
      (fs::path(dir_) / ("r" + key_hex(key) + ".json")).string();

  std::string tmp_token;
  {
    // The counter keeps concurrent writers of the same key on distinct tmp
    // names; the key suffix keeps the orphan diagnosable.
    std::lock_guard<std::mutex> lock(m_);
    tmp_token = std::to_string(++tmp_counter_) + "-" + key_hex(key);
  }
  atomic_publish(final_path, record, tmp_token);
}

void ResultStore::store(std::uint64_t key, const SimResult& r) {
  persist_record(key, result_to_record_json(r));
  std::lock_guard<std::mutex> lock(m_);
  mem_.insert_or_assign(key, r);
  // Value and poison share one file per key; the rename that published the
  // value just overwrote any poison record on disk, so forget it in memory
  // too (a retried point has been rehabilitated).
  poison_.erase(key);
  ++stats_.stores;
}

void ResultStore::store_failure(std::uint64_t key, const StoredFailure& f) {
  persist_record(key, failure_to_record_json(f));
  std::lock_guard<std::mutex> lock(m_);
  poison_.insert_or_assign(key, f);
  mem_.erase(key);
  ++stats_.poison_stores;
}

std::optional<StoredFailure> ResultStore::lookup_failure(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(m_);
  if (retry_failed_) return std::nullopt;
  auto it = poison_.find(key);
  if (it == poison_.end()) return std::nullopt;
  ++stats_.poison_hits;
  return it->second;
}

ResultStoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

}  // namespace mobcache
