#include "exp/runner.hpp"

#include <cmath>
#include <mutex>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "energy/technology.hpp"
#include "exp/parallel.hpp"
#include "exp/result_store.hpp"
#include "sim/batch.hpp"

namespace mobcache {

namespace {

/// Content identity of a built-in scheme: kind + every SchemeParams field.
std::uint64_t scheme_design_hash(SchemeKind kind, const SchemeParams& p) {
  return ContentHasher()
      .mix(std::string("scheme"))
      .mix(static_cast<std::uint64_t>(kind))
      .mix(hash_scheme_params(p))
      .digest();
}

}  // namespace

void validate_sim_result_finite(const SimResult& r) {
  SimResult::visit(
      [&r](FieldName n, const auto& v) {
        if constexpr (std::is_floating_point_v<
                          std::remove_cvref_t<decltype(v)>>) {
          if (std::isfinite(v)) return;
          NumericError err("result lane " + n.key() + " is not finite (" +
                           std::to_string(v) + ")");
          err.with_scheme(r.scheme).with_workload(r.workload);
          throw err;
        }
      },
      r);
}

ExperimentRunner::ExperimentRunner(std::vector<AppId> apps,
                                   std::uint64_t accesses, std::uint64_t seed)
    : apps_(std::move(apps)), traces_(apps_.size()) {
  // One task per app on the auto worker count, which the executor caps at
  // the number of apps; each task writes only its own slot.
  SweepExecutor().for_each(apps_.size(), [&](std::size_t i) {
    traces_[i] = std::make_shared<const Trace>(
        generate_app_trace(apps_[i], accesses, seed));
  });
}

ExperimentRunner::ExperimentRunner(
    std::vector<AppId> apps, std::vector<std::shared_ptr<const Trace>> traces)
    : apps_(std::move(apps)), traces_(std::move(traces)) {}

ExperimentRunner::ExperimentRunner(std::vector<Trace> traces) {
  traces_.reserve(traces.size());
  for (Trace& t : traces)
    traces_.push_back(std::make_shared<const Trace>(std::move(t)));
}

namespace {

/// The shared L1 passes of one grid call: at most one L1MissIndex per
/// trace, built by the first cell that computes on the trace — under that
/// cell's supervision, so its deadline covers the build — and freed when
/// the trace's last cell finishes, at the latest when the call returns. A
/// build that throws leaves the slot empty and the next cell of the trace
/// retries under its own supervision.
class L1IndexSlots {
  struct Slot {
    std::mutex mu;
    std::unique_ptr<const L1MissIndex> index;  ///< guarded by mu
    std::size_t pending = 0;                   ///< cells yet to finish
  };

 public:
  /// `cells[w]` cells will replay from trace w's index.
  explicit L1IndexSlots(const std::vector<std::size_t>& cells)
      : slots_(cells.size()) {
    for (std::size_t w = 0; w < cells.size(); ++w) slots_[w].pending = cells[w];
  }

  /// One cell's use of its trace's index, from before the build to the end
  /// of its replay; the last use of a trace frees the index.
  class Use {
   public:
    Use(L1IndexSlots& slots, std::size_t w) : slot_(slots.slots_[w]) {}
    ~Use() {
      std::lock_guard<std::mutex> lock(slot_.mu);
      if (--slot_.pending == 0) slot_.index.reset();
    }
    Use(const Use&) = delete;
    Use& operator=(const Use&) = delete;

    const L1MissIndex& get(const Trace& trace, const SimOptions& opts,
                           const PointSupervisor& sup) {
      std::lock_guard<std::mutex> lock(slot_.mu);
      if (!slot_.index) {
        slot_.index = std::make_unique<const L1MissIndex>(
            build_l1_miss_index(trace, opts, sup));
      }
      return *slot_.index;
    }

   private:
    Slot& slot_;
  };

 private:
  std::vector<Slot> slots_;
};

}  // namespace

const std::vector<std::uint64_t>& ExperimentRunner::trace_hashes() const {
  std::call_once(trace_hash_once_, [&] {
    trace_hashes_.reserve(traces_.size());
    for (const auto& t : traces_) trace_hashes_.push_back(hash_trace(*t));
  });
  return trace_hashes_;
}

bool ExperimentRunner::memoizable() const { return result_store != nullptr; }

std::vector<std::uint64_t> ExperimentRunner::cell_keys(
    std::uint64_t design_hash) const {
  const std::uint64_t opts = hash_sim_options(sim_options);
  const std::uint64_t tech = hash_technology(technology());
  std::vector<std::uint64_t> keys;
  keys.reserve(traces_.size());
  for (std::uint64_t th : trace_hashes())
    keys.push_back(result_point_key(design_hash, th, opts, tech));
  return keys;
}

DesignSpec scheme_design(SchemeKind kind, const SchemeParams& params) {
  DesignSpec d;
  d.name = scheme_name(kind);
  d.build = [kind, params] { return build_scheme(kind, params); };
  d.design_hash = scheme_design_hash(kind, params);
  d.kind = kind;
  return d;
}

std::vector<SchemeSuiteResult> ExperimentRunner::run_schemes(
    const std::vector<SchemeKind>& kinds, const SchemeParams& params) const {
  std::vector<DesignSpec> specs;
  specs.reserve(kinds.size());
  for (SchemeKind kind : kinds) specs.push_back(scheme_design(kind, params));
  return run_designs(specs);
}

std::vector<SchemeSuiteResult> ExperimentRunner::run_designs(
    const std::vector<DesignSpec>& specs) const {
  std::vector<PointOutcome<SchemeSuiteResult>> outcomes =
      run_designs_outcomes(specs, /*keep_going=*/false);
  std::vector<SchemeSuiteResult> out;
  out.reserve(outcomes.size());
  for (PointOutcome<SchemeSuiteResult>& o : outcomes)
    out.push_back(std::move(*o.value));
  return out;
}

std::vector<PointOutcome<SchemeSuiteResult>>
ExperimentRunner::run_designs_outcomes(
    const std::vector<DesignSpec>& specs, bool keep_going,
    const std::function<void(std::size_t)>& point_hook) const {
  const std::size_t n = specs.size();
  const std::size_t w_count = traces_.size();
  std::vector<PointOutcome<SchemeSuiteResult>> out(n);

  // Point hooks (chaos injection) run up front in ascending spec order:
  // fail-fast therefore throws the lowest-indexed hook failure
  // deterministically, before any cell has run.
  std::vector<char> live(n, 1);
  if (point_hook) {
    for (std::size_t s = 0; s < n; ++s) {
      try {
        point_hook(s);
      } catch (...) {
        if (!keep_going) throw;
        out[s].failure = point_failure_from(s, std::current_exception());
        live[s] = 0;
      }
    }
  }

  // Cell c = s * W + w, resolved under its per-point content key: a stored
  // value, then (keep-going only, unless retry_failed) a poison record,
  // which fails the spec without running the cell, then a fresh
  // computation. Cold cells are queued workload-major, so the executor's
  // contiguous shards start the workers on different traces and no worker
  // waits on another's L1 pass.
  const bool memo = memoizable();
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (live[s] && memo && specs[s].design_hash)
      keys[s] = cell_keys(*specs[s].design_hash);
  }
  // A spec's failure is the error of its lowest failing workload.
  std::vector<std::optional<std::pair<std::size_t, PointFailure>>> spec_fail(n);
  auto fail_cell = [&](std::size_t s, std::size_t w, PointFailure&& f) {
    if (spec_fail[s] && spec_fail[s]->first < w) return;
    f.index = s;
    spec_fail[s] = std::make_pair(w, std::move(f));
  };
  std::vector<std::optional<SimResult>> cells(n * w_count);
  std::vector<std::size_t> cold;
  std::vector<std::size_t> cold_on_trace(w_count, 0);
  for (std::size_t w = 0; w < w_count; ++w) {
    for (std::size_t s = 0; s < n; ++s) {
      if (!live[s]) continue;
      if (!keys[s].empty()) {
        if (std::optional<SimResult> hit = result_store->lookup(keys[s][w])) {
          cells[s * w_count + w] = std::move(*hit);
          continue;
        }
        if (keep_going) {
          if (std::optional<StoredFailure> poisoned =
                  result_store->lookup_failure(keys[s][w])) {
            fail_cell(s, w,
                      PointFailure{s, std::move(poisoned->error_type),
                                   std::move(poisoned->message), true});
            continue;
          }
        }
      }
      cold.push_back(s * w_count + w);
      ++cold_on_trace[w];
    }
  }

  // Two or more cold cells on a trace replay from its L1MissIndex; a lone
  // cell has nothing to share and simulates.
  const bool indexable = batch_eligible(sim_options);
  std::vector<std::size_t> indexed(w_count, 0);
  for (std::size_t w = 0; w < w_count; ++w)
    if (indexable && cold_on_trace[w] >= 2) indexed[w] = cold_on_trace[w];
  L1IndexSlots indexes(indexed);
  auto run_cell = [&](std::size_t s, std::size_t w) {
    const Trace& trace = *traces_[w];
    SimResult res;
    if (indexed[w] != 0) {
      L1IndexSlots::Use use(indexes, w);
      const PointSupervisor sup(sim_options);
      const L1MissIndex& index = use.get(trace, sim_options, sup);
      const std::unique_ptr<L2Interface> l2 = specs[s].build();
      res = replay_l1_miss_index(trace, index, *l2, sup);
    } else {
      res = simulate(trace, specs[s].build(), sim_options);
    }
    // Validated before it can reach the store, an artifact or a normalize.
    validate_sim_result_finite(res);
    return res;
  };
  auto compute = [&](std::size_t j) {
    const std::size_t s = cold[j] / w_count;
    const std::size_t w = cold[j] % w_count;
    const bool keyed = !keys[s].empty();
    // Persisted as it finishes, value or poison: a killed sweep resumes
    // from every cell decided. Cancellation is never poisoned — the cell
    // did not fail, the run stopped.
    SimResult res;
    try {
      res = run_cell(s, w);
    } catch (...) {
      const std::exception_ptr e = std::current_exception();
      if (keep_going && keyed && !is_cancellation(e)) {
        result_store->store_failure(
            keys[s][w], StoredFailure{error_type_of(e), error_message_of(e)});
      }
      throw;
    }
    if (keyed) result_store->store(keys[s][w], res);
    cells[cold[j]] = std::move(res);
  };

  SweepExecutor ex(jobs);
  if (keep_going) {
    ex.for_each_outcomes(cold.size(), compute, [&](PointFailure&& f) {
      const std::size_t c = cold[f.index];
      fail_cell(c / w_count, c % w_count, std::move(f));
    });
  } else {
    ex.for_each(cold.size(), compute);
  }

  for (std::size_t s = 0; s < n; ++s) {
    if (!live[s]) continue;
    if (spec_fail[s]) {
      out[s].failure = std::move(spec_fail[s]->second);
      continue;
    }
    SchemeSuiteResult r;
    r.name = specs[s].name;
    if (specs[s].kind) r.kind = *specs[s].kind;
    r.per_workload.reserve(w_count);
    double miss_sum = 0.0;
    for (std::size_t w = 0; w < w_count; ++w) {
      SimResult& res = *cells[s * w_count + w];
      miss_sum += res.l2_miss_rate();
      r.per_workload.push_back(std::move(res));
    }
    if (w_count > 0) r.avg_miss_rate = miss_sum / static_cast<double>(w_count);
    out[s].value = std::move(r);
  }
  return out;
}

std::vector<SchemeSuiteResult> ExperimentRunner::run_headline(
    const SchemeParams& params) const {
  std::vector<SchemeSuiteResult> all = run_schemes(headline_schemes(), params);
  normalize(all);
  return all;
}

void ExperimentRunner::normalize(std::vector<SchemeSuiteResult>& results) {
  if (results.empty()) return;
  const SchemeSuiteResult& base = results[0];
  for (SchemeSuiteResult& r : results) {
    std::vector<double> e_cache, e_total, t_exec;
    for (std::size_t w = 0; w < r.per_workload.size(); ++w) {
      const SimResult& s = r.per_workload[w];
      const SimResult& b = base.per_workload[w];
      const double base_cache = b.l2_energy.cache_nj();
      const double base_total = b.l2_energy.total_nj();
      const double base_cycles = static_cast<double>(b.cycles);
      if (base_cache > 0) e_cache.push_back(s.l2_energy.cache_nj() / base_cache);
      if (base_total > 0) e_total.push_back(s.l2_energy.total_nj() / base_total);
      if (base_cycles > 0)
        t_exec.push_back(static_cast<double>(s.cycles) / base_cycles);
    }
    r.norm_cache_energy = geomean(e_cache);
    r.norm_total_energy = geomean(e_total);
    r.norm_exec_time = geomean(t_exec);
  }
}

std::vector<FaultSweepPoint> run_fault_sweep(const ExperimentRunner& runner,
                                             SchemeKind kind,
                                             const std::vector<double>& rates,
                                             const SchemeParams& tmpl) {
  // Per-rate parameter sets, rate-0 reference first: the sweep reports
  // degradation caused by faults, not by the scheme itself.
  std::vector<SchemeParams> per_rate;
  per_rate.reserve(rates.size() + 1);
  SchemeParams clean = tmpl;
  clean.fault = FaultConfig{};
  per_rate.push_back(clean);
  for (double rate : rates) {
    SchemeParams p = tmpl;
    p.fault = FaultConfig::from_rate(rate, tmpl.fault.ecc,
                                     tmpl.fault.way_disable_threshold,
                                     tmpl.fault.seed);
    per_rate.push_back(p);
  }

  std::vector<DesignSpec> specs;
  specs.reserve(per_rate.size());
  for (const SchemeParams& p : per_rate)
    specs.push_back(scheme_design(kind, p));
  const std::vector<SchemeSuiteResult> grid = runner.run_designs(specs);
  const std::size_t w_count = runner.traces().size();

  std::vector<FaultSweepPoint> out;
  out.reserve(rates.size());
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    FaultSweepPoint pt;
    pt.rate = rates[ri];
    std::vector<double> e_ratios, t_ratios;
    double miss_sum = 0.0;
    for (std::size_t w = 0; w < w_count; ++w) {
      const SimResult& s = grid[ri + 1].per_workload[w];
      const SimResult& b = grid[0].per_workload[w];  // rate-0 reference row
      if (b.l2_energy.cache_nj() > 0)
        e_ratios.push_back(s.l2_energy.cache_nj() / b.l2_energy.cache_nj());
      if (b.cycles > 0) {
        t_ratios.push_back(static_cast<double>(s.cycles) /
                           static_cast<double>(b.cycles));
      }
      miss_sum += s.l2_miss_rate();
      pt.ecc_corrections += s.l2.ecc_corrections;
      pt.fault_losses += s.l2.fault_losses;
      pt.dirty_losses += s.l2.fault_lost_dirty;
      pt.scrub_repairs += s.l2.scrub_repairs;
      pt.quarantined_ways += s.l2_quarantined_ways;
    }
    pt.norm_cache_energy = geomean(e_ratios);
    pt.norm_exec_time = geomean(t_ratios);
    if (w_count > 0)
      pt.avg_miss_rate = miss_sum / static_cast<double>(w_count);
    out.push_back(pt);
  }
  return out;
}

namespace {

SeedStat to_stat(const RunningStat& r) {
  return {r.mean(), r.stddev(), r.min(), r.max()};
}

}  // namespace

std::vector<MultiSeedResult> run_multi_seed(
    const std::vector<AppId>& apps, std::uint64_t accesses,
    const std::vector<std::uint64_t>& seeds,
    const std::vector<SchemeKind>& schemes, const SchemeParams& params,
    unsigned jobs, ResultStore* store) {
  const std::size_t s_count = schemes.size();

  // One runner call per seed: its (scheme × workload) grid shares the
  // runner's executor, memoization and one L1 pass per trace. Each seed is
  // normalized on its own, then accumulated in seed order.
  std::vector<RunningStat> energy(s_count);
  std::vector<RunningStat> time(s_count);
  std::vector<RunningStat> miss(s_count);
  for (std::uint64_t seed : seeds) {
    ExperimentRunner runner(apps, accesses, seed);
    runner.jobs = jobs;
    runner.result_store = store;
    std::vector<SchemeSuiteResult> per_seed =
        runner.run_schemes(schemes, params);
    ExperimentRunner::normalize(per_seed);
    for (std::size_t i = 0; i < s_count; ++i) {
      energy[i].add(per_seed[i].norm_cache_energy);
      time[i].add(per_seed[i].norm_exec_time);
      miss[i].add(per_seed[i].avg_miss_rate);
    }
  }

  std::vector<MultiSeedResult> out;
  out.reserve(s_count);
  for (std::size_t i = 0; i < s_count; ++i) {
    MultiSeedResult r;
    r.kind = schemes[i];
    r.name = scheme_name(schemes[i]);
    r.cache_energy = to_stat(energy[i]);
    r.exec_time = to_stat(time[i]);
    r.miss_rate = to_stat(miss[i]);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace mobcache
