/// \file mobcache_simrun.cpp
/// CLI: run traces (generated or from .mct files) through one or all L2
/// schemes and print the full result sheet. The scripting workhorse —
/// everything the bench binaries compute is reachable from here.
///
/// Usage:
///   mobcache_simrun <trace.mct|app[,app...]> [scheme|all] [records] [seed]
///                   [--trace-out=FILE[,FORMAT]] [--metrics[=FILE]]
///                   [--sample=N] [--trace-evictions]
///                   [--fault-rate=R] [--ecc=KIND] [--fault-seed=N]
///                   [--way-disable-threshold=N] [--fault-sweep=R1,R2,...]
///                   [--jobs=N] [--store-dir=PATH] [--resume]
///                   [--keep-going] [--retry-failed] [--point-deadline-ms=N]
/// Schemes: base shrunk sharedstt drowsy victim sp spmrstt dp dpstt all
/// (default: all) — the parse_scheme_kind() vocabulary (core/scheme.hpp).
///
/// Parallelism (docs/PARALLELISM.md):
///   --jobs=N                   worker threads for --fault-sweep mode
///                              (default: MOBCACHE_JOBS env, then hardware
///                              concurrency). Results are identical for
///                              every N. The plain per-scheme mode stays
///                              serial: its telemetry sessions attach to one
///                              shared trace sink.
///
/// Resumable sweeps (docs/RESULT_STORE.md):
///   --store-dir=PATH           serve already-computed (scheme, trace)
///                              points from the result store at PATH and
///                              persist new ones there. Cached results are
///                              byte-identical to recomputed ones.
///   --resume                   same, using MOBCACHE_RESULT_STORE when set,
///                              else <results>/result_store. Memoization is
///                              skipped while --trace-out/--sample are
///                              active (cached results cannot replay event
///                              streams). With --metrics, a cache hit skips
///                              the run entirely — only executed runs
///                              contribute sim metrics — and the store's own
///                              hit/miss/corrupt counters surface under
///                              result_store.* in the merged registry.
///
/// Observability flags (docs/OBSERVABILITY.md):
///   --trace-out=FILE[,FORMAT]  structured event trace for every run.
///                              FORMAT: jsonl | chrome (default from the
///                              extension: .jsonl -> jsonl, .json/.trace ->
///                              chrome; otherwise jsonl).
///   --metrics[=FILE]           merged metric registry across all runs —
///                              printed as a table, or written as JSON when
///                              FILE is given. Includes the process-wide
///                              stream.* (trace chunking) and fleet.* (E22
///                              population sweep) counter groups.
///   --sample=N                 push an epoch sample every N trace records
///                              (schemes without internal epochs; the
///                              dynamic L2 always samples at its epochs).
///   --trace-evictions          include per-block eviction events in the
///                              trace (high volume; off by default).
///
/// Resilience flags (docs/RELIABILITY.md):
///   --fault-rate=R             per-write fault probability; scales the
///                              transient and retention-variation intensity
///                              with it (0 = off, bit-identical to a
///                              fault-free run).
///   --ecc=KIND                 none | parity | secded | dected (default
///                              secded).
///   --fault-seed=N             fault-stream RNG seed (default 1).
///   --way-disable-threshold=N  write faults on one way before it is
///                              quarantined (0 = never).
///   --fault-sweep=R1,R2,...    error-rate sweep: rerun each selected
///                              scheme at every rate, normalized against
///                              its own rate-0 run (bench E21 from the CLI).
///
/// Fault supervision (docs/RELIABILITY.md):
///   --keep-going               a failing (trace, scheme) run becomes a
///                              one-line diagnostic plus sweep.failed
///                              counter instead of aborting; with a store
///                              it is quarantined as a poison record and
///                              skipped (not re-run) on later resumes.
///                              --fault-sweep mode stays fail-fast: its
///                              points are normalized against each other,
///                              so a partial sweep has no meaning.
///   --retry-failed             ignore poison records: quarantined points
///                              re-run, and a success replaces the poison.
///   --point-deadline-ms=N      per-run wall-clock budget; an overrunning
///                              point throws DeadlineExceeded (exit 4, or a
///                              keep-going failure).
///
/// Exit codes (shared guarded_main contract, src/common/error.hpp):
/// 0 ok, 1 corrupt/unreadable input, 2 usage error, 3 numeric invariant
/// broken, 4 point deadline exceeded, 5 unexpected exception, 75
/// interrupted by SIGINT/SIGTERM (resumable — completed points persisted).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "energy/technology.hpp"
#include "exp/bench_harness.hpp"
#include "exp/fleet.hpp"
#include "exp/parallel.hpp"
#include "exp/result_store.hpp"
#include "exp/runner.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_stream.hpp"
#include "workload/suite.hpp"

using namespace mobcache;

namespace {

Trace load_or_generate(const std::string& spec, std::uint64_t records,
                       std::uint64_t seed) {
  TraceReadResult r = read_trace_any_detailed(spec);
  if (r.ok()) return std::move(*r.trace);
  if (r.status != TraceIoStatus::FileNotFound) {
    // The path exists but does not decode: refusing loudly beats silently
    // regenerating a different workload under the same name.
    std::fprintf(stderr, "cannot load trace '%s': %s (%s)\n", spec.c_str(),
                 to_string(r.status), r.detail.c_str());
    std::exit(1);
  }
  for (AppId id : all_apps()) {
    if (spec == app_name(id)) return generate_app_trace(id, records, seed);
  }
  std::fprintf(stderr, "'%s' is neither a readable .mct nor an app name\n",
               spec.c_str());
  std::exit(2);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

struct CliFlags {
  std::string trace_out;
  TraceFormat trace_format = TraceFormat::Jsonl;
  bool want_metrics = false;
  std::string metrics_out;  ///< empty = print table to stdout
  std::uint64_t sample_interval = 0;
  bool trace_evictions = false;

  double fault_rate = 0.0;
  EccKind ecc = EccKind::Secded;
  std::uint64_t fault_seed = 1;
  std::uint32_t way_disable_threshold = 0;
  std::vector<double> sweep_rates;
  unsigned jobs = 0;  ///< 0 = auto (MOBCACHE_JOBS, then hw concurrency)
  /// --store-dir / --resume are parsed here for validation but resolved by
  /// bench_result_store(argc, argv), the shared precedence logic.
  bool want_store = false;
  bool keep_going = false;
  bool retry_failed = false;
  std::uint64_t point_deadline_ms = 0;

  bool telemetry_needed() const {
    return !trace_out.empty() || want_metrics || sample_interval != 0;
  }

  FaultConfig fault_config(double rate) const {
    return FaultConfig::from_rate(rate, ecc, way_disable_threshold,
                                  fault_seed);
  }
};

/// Value of an `--name=value` flag. An empty value is a hard usage error for
/// every `=`-flag: `--metrics=` silently falling back to the stdout table
/// (or `--trace-out=` writing nowhere) hides a truncated shell variable.
/// `flag` includes the trailing '='; `what` names the expected value.
std::string require_flag_value(const std::string& a, const char* flag,
                               const char* what) {
  std::string v = a.substr(std::strlen(flag));
  if (v.empty()) {
    std::fprintf(stderr, "%.*s needs %s\n",
                 static_cast<int>(std::strlen(flag) - 1), flag, what);
    std::exit(2);
  }
  return v;
}

/// Checked numeric `--name=value` flag: an empty value is the usage error
/// above; garbage or an out-of-range value throws EnvError naming the flag
/// (exit 2 under guarded_main).
std::uint64_t u64_flag(const std::string& a, const char* flag,
                       const char* what, std::uint64_t max = UINT64_MAX) {
  return parse_u64(std::string(flag, std::strlen(flag) - 1),
                   require_flag_value(a, flag, what), 0, max);
}

/// Consumes --flags from (argc, argv); returns remaining positional args.
std::vector<std::string> parse_flags(int argc, char** argv, CliFlags& f) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      positional.push_back(a);
      continue;
    }
    if (a.rfind("--trace-out=", 0) == 0) {
      std::string spec = require_flag_value(a, "--trace-out=", "a path");
      const std::size_t comma = spec.rfind(',');
      bool format_given = false;
      if (comma != std::string::npos) {
        if (auto fmt = parse_trace_format(spec.substr(comma + 1))) {
          f.trace_format = *fmt;
          format_given = true;
          spec.resize(comma);
        }
      }
      if (!format_given) {
        f.trace_format = ends_with(spec, ".json") || ends_with(spec, ".trace")
                             ? TraceFormat::ChromeTrace
                             : TraceFormat::Jsonl;
      }
      f.trace_out = std::move(spec);
    } else if (a == "--metrics") {
      f.want_metrics = true;
    } else if (a.rfind("--metrics=", 0) == 0) {
      f.want_metrics = true;
      f.metrics_out = require_flag_value(a, "--metrics=", "a path");
    } else if (a.rfind("--sample=", 0) == 0) {
      f.sample_interval = u64_flag(a, "--sample=", "an interval");
    } else if (a == "--trace-evictions") {
      f.trace_evictions = true;
    } else if (a.rfind("--fault-rate=", 0) == 0) {
      f.fault_rate = parse_double(
          "--fault-rate", require_flag_value(a, "--fault-rate=", "a rate"),
          0.0, 1.0);
    } else if (a.rfind("--ecc=", 0) == 0) {
      const std::string kind = require_flag_value(a, "--ecc=", "a kind");
      if (auto k = parse_ecc_kind(kind)) {
        f.ecc = *k;
      } else {
        std::fprintf(stderr,
                     "unknown --ecc '%s' (none|parity|secded|dected)\n",
                     kind.c_str());
        std::exit(2);
      }
    } else if (a.rfind("--fault-seed=", 0) == 0) {
      f.fault_seed = u64_flag(a, "--fault-seed=", "a seed");
    } else if (a.rfind("--way-disable-threshold=", 0) == 0) {
      f.way_disable_threshold = static_cast<std::uint32_t>(
          u64_flag(a, "--way-disable-threshold=", "a count", UINT32_MAX));
    } else if (a.rfind("--fault-sweep=", 0) == 0) {
      for (const std::string& r : split_commas(
               require_flag_value(a, "--fault-sweep=", "at least one rate"))) {
        f.sweep_rates.push_back(parse_double("--fault-sweep", r, 0.0, 1.0));
      }
    } else if (a.rfind("--jobs=", 0) == 0) {
      // The range MOBCACHE_JOBS accepts; 0 keeps its meaning of "auto".
      f.jobs = static_cast<unsigned>(u64_flag(a, "--jobs=", "a count", 65536));
    } else if (a.rfind("--store-dir=", 0) == 0) {
      require_flag_value(a, "--store-dir=", "a path");
      f.want_store = true;
    } else if (a == "--resume") {
      f.want_store = true;
    } else if (a == "--keep-going") {
      f.keep_going = true;
    } else if (a == "--retry-failed") {
      f.retry_failed = true;
    } else if (a.rfind("--point-deadline-ms=", 0) == 0) {
      f.point_deadline_ms = u64_flag(a, "--point-deadline-ms=", "a deadline");
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      std::exit(2);
    }
  }
  return positional;
}

void print_metrics_table(const MetricRegistry& reg) {
  if (reg.empty()) {
    std::printf("(no metrics recorded)\n");
    return;
  }
  if (!reg.counters().empty()) {
    TablePrinter t({"counter", "value"});
    for (const auto& [name, c] : reg.counters())
      t.add_row({name, format_count(c.value())});
    t.print();
    std::printf("\n");
  }
  if (!reg.gauges().empty()) {
    TablePrinter t({"gauge", "last"});
    for (const auto& [name, g] : reg.gauges())
      t.add_row({name, format_double(g.value(), 3)});
    t.print();
    std::printf("\n");
  }
  if (!reg.stats().empty()) {
    TablePrinter t({"stat", "n", "mean", "min", "max"});
    for (const auto& [name, s] : reg.stats())
      t.add_row({name, format_count(s.count()), format_double(s.mean(), 3),
                 format_double(s.min(), 3), format_double(s.max(), 3)});
    t.print();
    std::printf("\n");
  }
  if (!reg.histograms().empty()) {
    TablePrinter t({"histogram", "n", "p50 <=", "p95 <="});
    for (const auto& [name, h] : reg.histograms())
      t.add_row({name, format_count(h.total()),
                 format_count(h.quantile_upper_bound(0.5)),
                 format_count(h.quantile_upper_bound(0.95))});
    t.print();
    std::printf("\n");
  }
}

/// --fault-sweep mode: error-rate vs energy/CPI per selected scheme, each
/// point normalized against that scheme's own fault-free run.
int run_sweep_mode(const CliFlags& flags, std::vector<Trace> traces,
                   const std::vector<SchemeKind>& kinds, ResultStore* store) {
  ExperimentRunner runner(std::move(traces));
  runner.jobs = effective_jobs(flags.jobs);
  runner.result_store = store;
  runner.sim_options.point_deadline_ms = flags.point_deadline_ms;
  SchemeParams tmpl;
  tmpl.fault = flags.fault_config(0.0);
  tmpl.fault.ecc = flags.ecc;
  tmpl.fault.way_disable_threshold = flags.way_disable_threshold;
  tmpl.fault.seed = flags.fault_seed;

  for (SchemeKind k : kinds) {
    const std::vector<FaultSweepPoint> pts =
        run_fault_sweep(runner, k, flags.sweep_rates, tmpl);
    std::printf("fault sweep: %s (ecc=%s, threshold=%u)\n", scheme_name(k),
                std::string(to_string(flags.ecc)).c_str(),
                flags.way_disable_threshold);
    TablePrinter t({"rate", "cache E vs clean", "time vs clean", "L2 miss",
                    "corrected", "lost", "dirty lost", "scrub repair",
                    "ways out"});
    for (const FaultSweepPoint& p : pts) {
      t.add_row({format_double(p.rate, 6), format_double(p.norm_cache_energy, 3),
                 format_double(p.norm_exec_time, 3),
                 format_percent(p.avg_miss_rate),
                 format_count(p.ecc_corrections), format_count(p.fault_losses),
                 format_count(p.dirty_losses), format_count(p.scrub_repairs),
                 format_count(p.quarantined_ways)});
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}

}  // namespace

static int tool_main(int argc, char** argv) {
  CliFlags flags;
  const std::vector<std::string> pos = parse_flags(argc, argv, flags);
  if (pos.empty()) {
    std::fprintf(
        stderr,
        "usage: %s <trace.mct|app[,app...]> [scheme|all] [records] [seed]\n"
        "          [--trace-out=FILE[,jsonl|chrome]] [--metrics[=FILE]]\n"
        "          [--sample=N] [--trace-evictions]\n"
        "          [--fault-rate=R] [--ecc=none|parity|secded|dected]\n"
        "          [--fault-seed=N] [--way-disable-threshold=N]\n"
        "          [--fault-sweep=R1,R2,...] [--jobs=N]\n"
        "          [--store-dir=PATH] [--resume]\n"
        "          [--keep-going] [--retry-failed] [--point-deadline-ms=N]\n",
        argv[0]);
    return 2;
  }
  const std::uint64_t records =
      pos.size() > 2 ? parse_u64("records", pos[2]) : 1'000'000;
  const std::uint64_t seed = pos.size() > 3 ? parse_u64("seed", pos[3]) : 1;

  std::vector<Trace> traces;
  for (const std::string& spec : split_commas(pos[0]))
    traces.push_back(load_or_generate(spec, records, seed));

  std::vector<SchemeKind> kinds;
  if (pos.size() <= 1 || pos[1] == "all") {
    kinds = headline_schemes();
  } else if (auto k = parse_scheme_kind(pos[1])) {
    kinds = {SchemeKind::BaselineSram};
    if (*k != SchemeKind::BaselineSram) kinds.push_back(*k);
  } else {
    std::fprintf(stderr, "unknown scheme '%s'\n", pos[1].c_str());
    return 2;
  }

  const std::unique_ptr<ResultStore> store = bench_result_store(argc, argv);
  if (store) store->set_retry_failed(flags.retry_failed);

  if (!flags.sweep_rates.empty())
    return run_sweep_mode(flags, std::move(traces), kinds, store.get());

  SchemeParams params;
  params.fault = flags.fault_config(flags.fault_rate);
  const bool faulted = params.fault.enabled();

  // Plain-mode memoization: with a store attached, each (trace, scheme) run
  // is a pure function of its inputs and can be served from (or persisted
  // to) the store. Keys match the ones the ExperimentRunner computes, so
  // simrun and the benches share entries. Event-stream flags opt out: a
  // cached SimResult cannot replay the per-access events --trace-out and
  // --sample exist to capture. (--metrics is fine — hits simply skip the
  // run, so the merged registry covers executed runs plus store counters.)
  // This loop is not a runner grid because the runner never memoizes a run
  // that carries a telemetry session; it applies the runner's lookup and
  // poison rules (docs/RESULT_STORE.md) point by point instead.
  const bool memoize = store != nullptr && flags.trace_out.empty() &&
                       flags.sample_interval == 0;
  const std::uint64_t tech_hash = memoize ? hash_technology(technology()) : 0;

  TraceSinkOptions sink_opts;
  sink_opts.include_evictions = flags.trace_evictions;
  TraceSink sink(flags.trace_format, sink_opts);
  // One session per (trace, scheme) run: contexts stay distinct in the trace
  // and per-run registries merge cleanly afterwards. Sessions must outlive
  // the sink's render (hub subscribers reference them).
  std::vector<std::unique_ptr<Telemetry>> sessions;

  // Keep-going bookkeeping, surfaced as sweep.* counters under --metrics.
  // quarantined counts within failed: those points were skipped because a
  // poison record already diagnosed them.
  std::uint64_t sweep_completed = 0;
  std::uint64_t sweep_failed = 0;
  std::uint64_t sweep_quarantined = 0;

  for (const Trace& trace : traces) {
    const std::uint64_t trace_hash = memoize ? hash_trace(trace) : 0;
    std::printf("trace '%s' (%s records, kernel %s)\n\n", trace.name().c_str(),
                format_count(trace.size()).c_str(),
                format_percent(trace.summarize().kernel_fraction()).c_str());

    TablePrinter t({"scheme", "L2 miss", "cycles", "CPI", "leak uJ", "dyn uJ",
                    "refresh uJ", "DRAM uJ", "cache E vs base",
                    "time vs base"});
    TablePrinter ft({"scheme", "write faults", "transients", "corrected",
                     "lost", "dirty lost", "scrub repair", "silent",
                     "ways out"});
    std::optional<SimResult> base;
    for (SchemeKind k : kinds) {
      SimOptions opts;
      opts.point_deadline_ms = flags.point_deadline_ms;
      SimResult r;
      bool cached_hit = false;
      std::uint64_t key = 0;
      if (memoize) {
        // The runner's key for the same point: scheme_design() supplies the
        // design hash. The key ignores opts.telemetry and the supervision
        // knobs (hash_sim_options covers semantic fields only), so it can
        // be computed before a session is attached.
        key = result_point_key(*scheme_design(k, params).design_hash,
                               trace_hash, hash_sim_options(opts), tech_hash);
        if (std::optional<SimResult> cached = store->lookup(key)) {
          r = std::move(*cached);
          cached_hit = true;
        } else if (flags.keep_going) {
          if (std::optional<StoredFailure> poisoned =
                  store->lookup_failure(key)) {
            std::fprintf(stderr,
                         "simrun: quarantined %s/%s: [%s] %s "
                         "(--retry-failed to re-run)\n",
                         trace.name().c_str(), scheme_name(k),
                         poisoned->error_type.c_str(),
                         poisoned->message.c_str());
            ++sweep_failed;
            ++sweep_quarantined;
            continue;
          }
        }
      }
      if (!cached_hit) {
        if (flags.telemetry_needed()) {
          sessions.push_back(std::make_unique<Telemetry>());
          Telemetry& tel = *sessions.back();
          tel.set_sample_interval(flags.sample_interval);
          if (!flags.trace_out.empty()) sink.attach(tel);
          opts.telemetry = &tel;
        }
        if (flags.keep_going) {
          try {
            r = simulate(trace, build_scheme(k, params), opts);
            validate_sim_result_finite(r);
          } catch (...) {
            const std::exception_ptr e = std::current_exception();
            // Cancellation is a run-level event, never a point failure.
            if (is_cancellation(e)) std::rethrow_exception(e);
            const StoredFailure f{error_type_of(e), error_message_of(e)};
            if (memoize) store->store_failure(key, f);
            std::fprintf(stderr, "simrun: point failed: %s/%s: [%s] %s\n",
                         trace.name().c_str(), scheme_name(k),
                         f.error_type.c_str(), f.message.c_str());
            ++sweep_failed;
            continue;
          }
        } else {
          r = simulate(trace, build_scheme(k, params), opts);
          validate_sim_result_finite(r);
        }
        if (memoize) store->store(key, r);
      }
      ++sweep_completed;
      if (!base) base = r;
      const EnergyBreakdown& e = r.l2_energy;
      t.add_row({scheme_name(k), format_percent(r.l2_miss_rate()),
                 format_count(r.cycles), format_double(r.cpi, 2),
                 format_double(e.leakage_nj / 1e3, 1),
                 format_double((e.read_nj + e.write_nj) / 1e3, 1),
                 format_double(e.refresh_nj / 1e3, 1),
                 format_double(e.dram_nj / 1e3, 1),
                 format_double(e.cache_nj() / base->l2_energy.cache_nj(), 3),
                 format_double(static_cast<double>(r.cycles) /
                                   static_cast<double>(base->cycles),
                               3)});
      if (faulted) {
        ft.add_row({scheme_name(k), format_count(r.l2.write_faults),
                    format_count(r.l2.transient_upsets),
                    format_count(r.l2.ecc_corrections),
                    format_count(r.l2.fault_losses),
                    format_count(r.l2.fault_lost_dirty),
                    format_count(r.l2.scrub_repairs),
                    format_count(r.l2.silent_faults),
                    format_count(r.l2_quarantined_ways)});
      }
    }
    t.print();
    std::printf("\n");
    if (faulted) {
      std::printf("resilience (fault rate %g, ecc %s)\n", flags.fault_rate,
                  std::string(to_string(flags.ecc)).c_str());
      ft.print();
      std::printf("\n");
    }
  }

  if (!flags.trace_out.empty()) {
    if (!sink.write_file(flags.trace_out)) {
      std::fprintf(stderr, "cannot write trace to '%s'\n",
                   flags.trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s (%s)\n", sink.event_count(),
                flags.trace_out.c_str(),
                flags.trace_format == TraceFormat::Jsonl ? "jsonl" : "chrome");
  }

  if (flags.want_metrics) {
    MetricRegistry merged;
    for (const auto& tel : sessions) merged.merge(tel->metrics());
    if (store) {
      const ResultStoreStats st = store->stats();
      merged.counter("result_store.hits").add(st.hits);
      merged.counter("result_store.misses").add(st.misses);
      merged.counter("result_store.stores").add(st.stores);
      merged.counter("result_store.corrupt_skipped").add(st.corrupt_skipped);
      merged.counter("result_store.loaded").add(st.loaded);
      merged.counter("result_store.poisoned_loaded").add(st.poisoned_loaded);
      merged.counter("result_store.poison_hits").add(st.poison_hits);
      merged.counter("result_store.poison_stores").add(st.poison_stores);
    }
    // Sweep supervision counters (failure details: one stderr line each,
    // plus poison records when a store is attached).
    merged.counter("sweep.completed").add(sweep_completed);
    merged.counter("sweep.failed").add(sweep_failed);
    merged.counter("sweep.quarantined").add(sweep_quarantined);
    // Streaming-pipeline counters (docs/SWEEP_ENGINE.md): every generated
    // workload now flows through chunked TraceStreams, so chunks_generated
    // ticks even for materialized runs; high_water_chunk_bytes is the
    // constant-memory witness. fleet.* stays zero unless a fleet sweep ran
    // in this process (bench_e22_fleet), but the keys are part of the
    // registry contract either way.
    const StreamCounters stream = stream_counters();
    merged.counter("stream.chunks_generated").add(stream.chunks_generated);
    merged.counter("stream.chunk_reuse_hits").add(stream.chunk_reuse_hits);
    merged.counter("stream.high_water_chunk_bytes")
        .add(stream.high_water_chunk_bytes);
    const FleetCounters fleet = fleet_counters();
    merged.counter("fleet.sessions_simulated").add(fleet.sessions_simulated);
    merged.counter("fleet.session_records").add(fleet.session_records);
    merged.counter("fleet.shard_merges").add(fleet.shard_merges);
    if (flags.metrics_out.empty()) {
      std::printf("merged metrics (%zu runs)\n", sessions.size());
      print_metrics_table(merged);
    } else {
      const std::string doc = metrics_json_string(merged) + "\n";
      std::FILE* f = std::fopen(flags.metrics_out.c_str(), "w");
      if (f == nullptr || std::fwrite(doc.data(), 1, doc.size(), f) !=
                              doc.size()) {
        if (f != nullptr) std::fclose(f);
        std::fprintf(stderr, "cannot write metrics to '%s'\n",
                     flags.metrics_out.c_str());
        return 1;
      }
      std::fclose(f);
      std::printf("wrote metrics JSON to %s\n", flags.metrics_out.c_str());
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  // Signal handlers on: simrun drives resumable sweeps, so SIGINT/SIGTERM
  // drain in-flight points, keep the store consistent, and exit 75.
  return guarded_main("mobcache_simrun", /*install_signals=*/true, argc, argv,
                      tool_main);
}
