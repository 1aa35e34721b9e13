#include "exp/result_store.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/atomic_file.hpp"
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
      .mix(static_cast<std::uint64_t>(o.hierarchy.prefetch))
      .mix(static_cast<std::uint64_t>(o.hierarchy.inclusive_l2))
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

/// Appends `"key":value,` for one field. Doubles get 17 significant
/// digits, which identify a binary64 uniquely; strtod's correct rounding
/// reproduces the exact bit pattern on parse.
template <typename T>
void put(std::string& out, FieldName n, const T& v) {
  out += '"';
  out += n.prefix;
  out += n.name;
  out += "\":";
  if constexpr (std::is_same_v<T, std::string>) {
    out += '"';
    out += json_escape(v);
    out += '"';
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  } else {
    out += std::to_string(v);
  }
  out += ',';
}

// Record payloads parse with FlatParser (common/flat_json.hpp): the store
// only ever consumes JSON this codebase wrote itself.

/// Reads one field; false when it is missing, mistyped or out of range.
template <typename T>
bool get(const FlatParser& f, FieldName n, T& v) {
  const std::string key = n.key();
  if constexpr (std::is_same_v<T, std::string>) {
    return f.get_str(key.c_str(), v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return f.get_dbl(key.c_str(), v);
  } else {
    std::uint64_t wide = 0;
    if (!f.get_u64(key.c_str(), wide) ||
        wide > std::numeric_limits<T>::max())
      return false;
    v = static_cast<T>(wide);
    return true;
  }
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, key);
  return buf;
}

}  // namespace

std::string result_to_record_json(const SimResult& r) {
  std::string out = "{";
  SimResult::visit([&](FieldName n, const auto& v) { put(out, n, v); }, r);
  out.back() = '}';  // replace the trailing comma
  return out;
}

std::optional<SimResult> result_from_record_json(const std::string& json) {
  FlatParser f;
  if (!f.parse(json)) return std::nullopt;
  SimResult r;
  bool ok = true;
  SimResult::visit([&](FieldName n, auto& v) { ok = ok && get(f, n, v); }, r);
  if (!ok) return std::nullopt;
  return r;
}

std::string failure_to_record_json(const StoredFailure& f) {
  std::string out = "{";
  // The marker field comes first and is what dispatches payload parsing; a
  // value payload can never contain it (no SimResult field is named
  // "poison").
  put(out, FieldName{"", "poison"}, std::uint64_t{1});
  put(out, FieldName{"", "error_type"}, f.error_type);
  put(out, FieldName{"", "message"}, f.message);
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
