#pragma once
/// \file result_store.hpp
/// Crash-safe, content-addressed store of completed sweep points.
///
/// Every paper sweep in this repo is a grid of *deterministic* simulation
/// points: a SimResult is a pure function of (scheme + parameters, cache /
/// technology configuration, trace identity, per-point seed). That purity is
/// already load-bearing — it is what makes parallel sweeps bit-identical to
/// serial ones (exp/parallel.hpp) — so the same function can be memoized
/// across *process lifetimes*: hash the inputs into a 64-bit content key,
/// persist each finished point as an atomically-renamed record on disk, and
/// on the next run serve the hit set without re-simulating. A killed sweep
/// resumes from its last completed point; an edited sweep recomputes only
/// the points whose inputs changed.
///
/// Durability contract (docs/RESULT_STORE.md):
///  - One record per file under `<dir>/`, named `r<key-hex>.json`. Writers
///    stream to `.tmp-*`, fsync, then rename() into place — readers never
///    observe a half-written record under the final name.
///  - The directory listing *is* the manifest. Loading validates a per-record
///    FNV-1a checksum (plus schema version and self-named key); torn, truncated
///    or bit-rotted records are counted, skipped, and transparently recomputed
///    — corruption costs one point, never the sweep.
///  - kResultSchemaVersion participates in every key: bump it whenever
///    SimResult semantics change and all old records miss instead of lying.
///
/// Keys must be *normalized*: two configurations that simulate identically
/// must hash identically (cosmetic fields such as CacheConfig::name are
/// excluded), and any field that changes simulation output must be folded in.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/scheme.hpp"
#include "sim/simulator.hpp"

namespace mobcache {

/// Bump on ANY change to SimResult fields, their meaning, or the
/// simulation semantics behind them; stale records then miss by key.
inline constexpr std::uint64_t kResultSchemaVersion = 1;

/// Composable FNV-1a/64 accumulator used for all content keys. Field order
/// is significant; every mix() site is part of the key contract.
class ContentHasher {
 public:
  ContentHasher& mix(std::uint64_t v);
  ContentHasher& mix(double v);  ///< bit pattern, so -0.0 != 0.0
  ContentHasher& mix(const std::string& s);
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Normalized content hashes of the structures that determine a SimResult.
std::uint64_t hash_cache_config(const CacheConfig& c);      ///< excludes name
std::uint64_t hash_scheme_params(const SchemeParams& p);
std::uint64_t hash_sim_options(const SimOptions& o);        ///< configs only
std::uint64_t hash_technology(const TechnologyConfig& t);
/// Content fingerprint of a trace (name, length, and every record).
std::uint64_t hash_trace(const Trace& t);

/// One sweep point's full identity. Everything the simulation reads is
/// folded in, including the schema version.
std::uint64_t result_point_key(std::uint64_t design_hash,
                               std::uint64_t trace_hash,
                               std::uint64_t options_hash,
                               std::uint64_t technology_hash,
                               std::uint64_t point_seed = 0);

struct ResultStoreStats {
  std::uint64_t hits = 0;            ///< lookups served from the store
  std::uint64_t misses = 0;          ///< lookups that forced a simulation
  std::uint64_t stores = 0;          ///< records persisted this process
  std::uint64_t corrupt_skipped = 0; ///< records rejected at load time
  std::uint64_t loaded = 0;          ///< valid value records found at open
  std::uint64_t poisoned_loaded = 0; ///< poison records found at open
  std::uint64_t poison_hits = 0;     ///< lookups quarantined by a poison record
  std::uint64_t poison_stores = 0;   ///< poison records persisted this process

  /// The counters' one field list: calls f(FieldName{prefix, name},
  /// s.field...) for each counter, over the same field of every `s`.
  /// simrun's result_store.* metrics and the BENCH report's result_store
  /// object loop over it.
  template <typename F, typename... S>
  static void visit(F&& f, const char* prefix, S&... s) {
    f(FieldName{prefix, "hits"}, s.hits...);
    f(FieldName{prefix, "misses"}, s.misses...);
    f(FieldName{prefix, "stores"}, s.stores...);
    f(FieldName{prefix, "corrupt_skipped"}, s.corrupt_skipped...);
    f(FieldName{prefix, "loaded"}, s.loaded...);
    f(FieldName{prefix, "poisoned_loaded"}, s.poisoned_loaded...);
    f(FieldName{prefix, "poison_hits"}, s.poison_hits...);
    f(FieldName{prefix, "poison_stores"}, s.poison_stores...);
  }
};
// A counter added to ResultStoreStats must be added to visit() too.
static_assert(sizeof(ResultStoreStats) == 8 * sizeof(std::uint64_t));

/// A persisted point failure — the payload of a poison record. Carries the
/// stable taxonomy label (error_type_of()) and the one-line message, so a
/// resumed sweep can re-report *why* the point is quarantined without
/// re-running it.
struct StoredFailure {
  std::string error_type;
  std::string message;
};

/// Thread-safe persistent map key -> SimResult. All methods may be called
/// concurrently from SweepExecutor workers.
class ResultStore {
 public:
  /// Opens (creating if needed) the store directory and loads the manifest;
  /// corrupt records are counted in stats().corrupt_skipped and skipped.
  /// Throws std::runtime_error when the directory cannot be created.
  explicit ResultStore(std::string dir);

  /// Returns the stored result and counts a hit; nullopt counts a miss.
  std::optional<SimResult> lookup(std::uint64_t key);

  /// Persists (temp + fsync + rename) and caches one completed point.
  /// Write failures throw std::runtime_error — a sweep that believes it
  /// checkpointed must actually have. Storing a value clears any poison
  /// record for the same key (retry succeeded: the rename overwrites the
  /// poison file in the same atomic step).
  void store(std::uint64_t key, const SimResult& r);

  /// Quarantines a point: persists a *poison record* (same file name,
  /// header, and checksum discipline as a value record, but a failure
  /// payload) so later runs skip the known-bad point instead of
  /// re-simulating it. Counts in stats().poison_stores.
  void store_failure(std::uint64_t key, const StoredFailure& f);

  /// The quarantine record for `key`, if any — unless retry_failed() is
  /// set, in which case poison records are ignored so the sweep recomputes
  /// the point (and replaces the poison on success). Counts a poison_hit
  /// when it returns a failure.
  std::optional<StoredFailure> lookup_failure(std::uint64_t key);

  /// The --retry-failed escape hatch: when true, lookup_failure() reports
  /// nothing so quarantined points re-run.
  void set_retry_failed(bool retry) { retry_failed_ = retry; }
  bool retry_failed() const { return retry_failed_; }

  const std::string& dir() const { return dir_; }
  ResultStoreStats stats() const;

 private:
  void load_existing();
  /// Shared tmp + fsync + rename path for value and poison records.
  void persist_record(std::uint64_t key, const std::string& payload);

  std::string dir_;
  mutable std::mutex m_;
  std::unordered_map<std::uint64_t, SimResult> mem_;
  std::unordered_map<std::uint64_t, StoredFailure> poison_;
  ResultStoreStats stats_;
  std::uint64_t tmp_counter_ = 0;
  bool retry_failed_ = false;
};

/// Exact-round-trip (de)serialization of one SimResult — the store's record
/// payload format, exposed for tests. Doubles are written with enough
/// digits to reparse to the identical bit pattern.
std::string result_to_record_json(const SimResult& r);
std::optional<SimResult> result_from_record_json(const std::string& json);

/// Poison-record payload (de)serialization, exposed for tests. A poison
/// payload is distinguished from a value payload by its `"poison":1` field;
/// pre-quarantine readers reject it as corrupt (and recompute) rather than
/// misread it as a result.
std::string failure_to_record_json(const StoredFailure& f);
std::optional<StoredFailure> failure_from_record_json(const std::string& json);

}  // namespace mobcache
