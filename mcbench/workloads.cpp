/// \file workloads.cpp
/// The four mcbench workloads. Each one's timed region is a single call (or
/// a single executor sweep) into the library; the traced analysis pass
/// re-runs its inputs layer by layer.

#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "common/table.hpp"
#include "exp/fleet.hpp"
#include "exp/json_export.hpp"
#include "exp/report.hpp"
#include "exp/result_store.hpp"
#include "exp/runner.hpp"
#include "obs/trace_export.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_stream.hpp"
#include "workload/scenario.hpp"
#include "workload/suite.hpp"

namespace mcbench {

namespace {

std::vector<const Trace*> raw(
    const std::vector<std::shared_ptr<const Trace>>& v) {
  std::vector<const Trace*> out;
  for (const auto& t : v) out.push_back(t.get());
  return out;
}

std::uint64_t total_records(const std::vector<const Trace*>& traces) {
  std::uint64_t n = 0;
  for (const Trace* t : traces) n += t->size();
  return n;
}

/// Simulated-statistics metrics over a set of cells.
void add_cell_metrics(std::vector<Named>& out,
                      const std::vector<SimResult>& cells) {
  std::uint64_t acc = 0, miss = 0, expired = 0;
  double refresh = 0.0, cache = 0.0;
  for (const SimResult& r : cells) {
    acc += r.l2.total_accesses();
    miss += r.l2.total_misses();
    expired += r.l2.expired_blocks;
    refresh += r.l2_energy.refresh_nj;
    cache += r.l2_energy.cache_nj();
  }
  out.push_back({"cache.l2_miss_rate",
                 ratio(static_cast<double>(miss), static_cast<double>(acc)),
                 "ratio"});
  out.push_back(
      {"cache.expired_blocks", static_cast<double>(expired), "count"});
  out.push_back({"energy.refresh_share", ratio(refresh, cache), "ratio"});
}

/// The L1/L2/kernel split metrics of an analysis pass.
void add_split_metrics(std::vector<Named>& out, const LayerSplit& s) {
  const double replay_ns =
      ratio(s.replay_s * 1e9, static_cast<double>(s.lane_accesses));
  const double kernel_ns =
      ratio(s.kernel_s * 1e9, static_cast<double>(s.kernel_accesses));
  out.push_back({"sim.l1_pass_s", s.l1_s, "s"});
  out.push_back({"sim.demand_ratio",
                 ratio(static_cast<double>(s.demand),
                       static_cast<double>(s.records)),
                 "ratio"});
  out.push_back({"sim.l2_replay_s", s.replay_s, "s"});
  out.push_back({"sim.l2_replay_ns_per_access", replay_ns, "ns"});
  out.push_back({"cache.kernel_ns_per_access", kernel_ns, "ns"});
  out.push_back({"core.wrapper_ns_per_access", replay_ns - kernel_ns, "ns"});
}

/// Times generate_app_trace for each app, one trace alive at a time.
void add_gen_metrics(std::vector<Named>& out, const std::vector<AppId>& apps,
                     std::uint64_t len, std::uint64_t seed, SpanLog& log) {
  double secs = 0.0;
  std::uint64_t records = 0;
  for (AppId app : apps) {
    records += timed(log, "workload.gen", secs,
                     [&] { return generate_app_trace(app, len, seed).size(); });
  }
  out.push_back({"workload.gen_s", secs, "s"});
  out.push_back({"workload.gen_records_per_s",
                 ratio(static_cast<double>(records), secs), "1/s"});
}

void warm_designs(const std::vector<Design>& designs) {
  for (const Design& d : designs) build(d);
}

// ---- the obs layer: one simrun --metrics --sample --trace-evictions point ---

constexpr std::uint64_t kSampleInterval = 10'000;

/// Apps whose eviction-event volume varies least from seed to seed (game and
/// matmul swing 2-5x with their phase draws), so the event-bound cost of the
/// telemetry path is comparable across seeds.
const std::vector<AppId>& obs_apps() {
  static const std::vector<AppId> apps = {AppId::Browser, AppId::VideoPlayer,
                                          AppId::Social};
  return apps;
}

std::vector<Design> obs_designs() {
  std::vector<Design> out;
  for (SchemeKind k : {SchemeKind::BaselineSram, SchemeKind::StaticPartMrstt,
                       SchemeKind::DynamicStt})
    out.push_back({scheme_name(k), k, {}});
  return out;
}

struct TelemetryCell {
  std::string record;
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;  ///< rendered JSONL plus metrics JSON
};

/// One simrun-style point: a Telemetry session sampling every
/// kSampleInterval records, a JSONL sink with eviction export, the run, then
/// the sink and the metrics rendered to memory. `sim_s` and `render_s`, when
/// set, accumulate the simulate() and the render durations.
TelemetryCell telemetry_cell(const Trace& trace, const Design& d, SpanLog* log,
                             double* sim_s = nullptr,
                             double* render_s = nullptr) {
  Telemetry tel;
  tel.set_sample_interval(kSampleInterval);
  TraceSinkOptions so;
  so.include_evictions = true;
  TraceSink sink(TraceFormat::Jsonl, so);
  sink.attach(tel);
  SimOptions opts;
  opts.telemetry = &tel;
  std::unique_ptr<L2Interface> l2 = build(d);
  const double t0 = wall_now();
  SimResult r;
  {
    std::optional<SpanLog::Scope> s;
    if (log != nullptr) s.emplace(*log, "obs.simulate");
    r = simulate(trace, *l2, opts);
  }
  const double t1 = wall_now();
  validate_sim_result_finite(r);
  TelemetryCell c;
  {
    std::optional<SpanLog::Scope> s;
    if (log != nullptr) s.emplace(*log, "obs.render");
    c.record = result_to_record_json(r);
    c.events = sink.event_count();
    c.bytes = sink.render().size() + metrics_json_string(tel.metrics()).size();
  }
  if (sim_s != nullptr) *sim_s += t1 - t0;
  if (render_s != nullptr) *render_s += wall_now() - t1;
  return c;
}

/// The obs layer over every (design, trace) cell, serially: simulate()
/// without a session, with a sampling session, and as a full telemetry cell.
/// Telemetry is read-only, so the session-free result must equal the full
/// cell's byte for byte; each cell counts as one check.
void add_obs_metrics(Analysis& a, const std::vector<const Trace*>& traces,
                     const std::vector<Design>& designs, SpanLog& log) {
  double plain = 0.0, sampled = 0.0, exported = 0.0, render = 0.0;
  std::uint64_t events = 0, bytes = 0;
  for (const Design& d : designs) {
    for (const Trace* trace : traces) {
      const std::unique_ptr<L2Interface> plain_l2 = build(d);
      const SimResult r = timed(log, "sim.per_point", plain,
                                [&] { return simulate(*trace, *plain_l2); });
      {
        Telemetry tel;
        tel.set_sample_interval(kSampleInterval);
        SimOptions opts;
        opts.telemetry = &tel;
        const std::unique_ptr<L2Interface> l2 = build(d);
        timed(log, "obs.sampled", sampled,
              [&] { return simulate(*trace, *l2, opts); });
      }
      const TelemetryCell c =
          telemetry_cell(*trace, d, &log, &exported, &render);
      events += c.events;
      bytes += c.bytes;
      ++a.checked;
      if (c.record != result_to_record_json(r)) ++a.mismatched;
    }
  }
  a.metrics.push_back({"obs.sampling_overhead_x", ratio(sampled, plain), "x"});
  a.metrics.push_back({"obs.overhead_x", ratio(exported, plain), "x"});
  a.metrics.push_back({"obs.events", static_cast<double>(events), "count"});
  a.metrics.push_back(
      {"obs.ns_per_event",
       ratio((exported - sampled) * 1e9, static_cast<double>(events)), "ns"});
  a.metrics.push_back({"obs.render_s", render, "s"});
  a.metrics.push_back(
      {"obs.render_mb", static_cast<double>(bytes) / (1024.0 * 1024.0),
       "MiB"});
}

// ---- headline and sweep: an ExperimentRunner over an app suite -------------

/// E9's headline grid (per-point, through run_headline) or E6's retention
/// grid (batched, through run_designs). Cells are design-major.
class GridWorkload final : public Workload {
 public:
  GridWorkload(WorkloadOptions o, bool batched) : opts_(o), batched_(batched) {
    if (batched_) {
      // E6: the SRAM baseline plus the 3×3 (user, kernel) retention pairings
      // over four apps at session length.
      apps_ = {AppId::Launcher, AppId::Browser, AppId::Email, AppId::Maps};
      len_ = 6'000'000;
      designs_.push_back({"baseline", SchemeKind::BaselineSram, {}});
      const RetentionClass classes[] = {RetentionClass::Lo, RetentionClass::Mid,
                                        RetentionClass::Hi};
      for (RetentionClass u : classes) {
        for (RetentionClass k : classes) {
          Design d{std::string(scheme_name(SchemeKind::StaticPartMrstt)),
                   SchemeKind::StaticPartMrstt, {}};
          d.params.mrstt_user = u;
          d.params.mrstt_kernel = k;
          designs_.push_back(d);
        }
      }
    } else {
      // E9: the eight interactive apps × the nine headline schemes.
      apps_ = interactive_apps();
      len_ = 2'000'000;
      for (SchemeKind k : headline_schemes())
        designs_.push_back({scheme_name(k), k, {}});
    }
    for (const Design& d : designs_)
      specs_.push_back(scheme_design(d.kind, d.params));
  }

  void setup() override {
    runner_ = std::make_unique<ExperimentRunner>(apps_, len_, opts_.seed);
    runner_->jobs = opts_.jobs;
    runner_->sweep_batch = batched_ ? 16 : 1;
    warm_designs(designs_);
  }

  void teardown() override {
    results_.clear();
    runner_.reset();
    TraceCache::instance().clear();
  }

  RunOutput run() override {
    results_ = execute();
    emit();
    return output();
  }

  RunOutput run_traced(SpanLog& log) override {
    {
      SpanLog::Scope s(log, batched_ ? "exp.run_designs" : "exp.run_headline");
      results_ = execute();
    }
    {
      SpanLog::Scope s(log, "exp.emit");
      emit();
    }
    return output();
  }

  std::pair<std::uint64_t, std::uint64_t> spot_check() override {
    // One seed-chosen cell through the other engine: the batched timed run is
    // checked per point, the per-point timed run through the batched path.
    const std::size_t w_count = apps_.size();
    const std::size_t c = opts_.seed % (designs_.size() * w_count);
    const std::size_t d = c / w_count, w = c % w_count;
    const std::string want =
        result_to_record_json(results_[d].per_workload[w]);
    bool ok = false;
    if (batched_) {
      const SimResult r =
          simulate(runner_->trace(w), build(designs_[d]), runner_->sim_options);
      ok = result_to_record_json(r) == want;
    } else {
      ok = batched_cell_matches(runner_->trace(w), designs_[d],
                                runner_->sim_options, want);
    }
    return {1, ok ? 0 : 1};
  }

  Analysis analyse(SpanLog& log) override {
    Analysis a;
    add_gen_metrics(a.metrics, apps_, len_, opts_.seed, log);
    const std::vector<const Trace*> traces = raw(runner_->traces());
    if (!batched_) {
      // Per-point cost, sampled on the first trace: one simulate() per design.
      for (const Design& d : designs_) {
        std::unique_ptr<L2Interface> l2;
        {
          SpanLog::Scope s(log, "core.build");
          l2 = build(d);
        }
        SpanLog::Scope s(log, "sim.per_point");
        simulate(*traces[0], *l2, runner_->sim_options);
      }
    }
    std::vector<std::string> expected;
    std::vector<SimResult> cells;
    for (const SchemeSuiteResult& r : results_) {
      for (const SimResult& s : r.per_workload) {
        expected.push_back(result_to_record_json(s));
        cells.push_back(s);
      }
    }
    const LayerSplit split =
        layer_split(traces, designs_, runner_->sim_options, expected, log);
    add_split_metrics(a.metrics, split);
    add_cell_metrics(a.metrics, cells);
    a.checked = split.checked;
    a.mismatched = split.mismatched;
    if (!batched_) {
      // The obs layer on this grid's own traces of the telemetry apps, so
      // it is measured on a workload the benchmark always runs.
      std::vector<const Trace*> obs_traces;
      for (AppId app : obs_apps()) {
        const auto it = std::find(apps_.begin(), apps_.end(), app);
        obs_traces.push_back(traces[it - apps_.begin()]);
      }
      add_obs_metrics(a, obs_traces, obs_designs(), log);
    }
    return a;
  }

  unsigned jobs() const override { return opts_.jobs; }

  std::vector<Named> model_report() const override {
    std::vector<Named> out;
    if (batched_) return out;
    for (const SchemeSuiteResult& r : results_) {
      const char* tag = r.kind == SchemeKind::StaticPartMrstt ? "spmrstt"
                        : r.kind == SchemeKind::DynamicStt    ? "dpstt"
                                                              : nullptr;
      if (tag == nullptr) continue;
      out.push_back({std::string("model.") + tag + ".norm_cache_energy",
                     r.norm_cache_energy, "ratio"});
      out.push_back({std::string("model.") + tag + ".norm_exec_time",
                     r.norm_exec_time, "ratio"});
    }
    return out;
  }

 private:
  std::vector<SchemeSuiteResult> execute() const {
    if (!batched_) return runner_->run_headline();
    std::vector<SchemeSuiteResult> r = runner_->run_designs(specs_);
    ExperimentRunner::normalize(r);
    return r;
  }

  void emit() const {
    const std::string stem = batched_ ? "e6_retention_grid" : "e9_headline";
    write_experiment_json(batched_ ? "E6" : "E9", results_, stem + ".json");
    headline_table(results_).write_csv(results_path(stem + ".csv"));
  }

  RunOutput output() const {
    RunOutput o;
    o.points = designs_.size() * apps_.size();
    o.sim_records = total_records(raw(runner_->traces())) * designs_.size();
    Digest dg;
    for (const SchemeSuiteResult& r : results_) {
      dg.add(r.name);
      for (const SimResult& s : r.per_workload)
        dg.add(result_to_record_json(s));
      dg.add(r.norm_cache_energy);
      dg.add(r.norm_total_energy);
      dg.add(r.norm_exec_time);
    }
    o.digest = dg.hex();
    return o;
  }

  WorkloadOptions opts_;
  bool batched_;
  std::vector<AppId> apps_;
  std::uint64_t len_ = 0;
  std::vector<Design> designs_;
  std::vector<DesignSpec> specs_;
  std::unique_ptr<ExperimentRunner> runner_;
  std::vector<SchemeSuiteResult> results_;
};

// ---- fleet: E22's streamed population on DP-STT ----------------------------

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(WorkloadOptions o) : opts_(o) {
    cfg_.mix = PopulationModel::default_mix(60'000);
    cfg_.sessions = kSessions;
    cfg_.seed = o.seed;
    cfg_.scheme = SchemeKind::DynamicStt;
    cfg_.jobs = o.jobs;
  }

  void setup() override {
    // Nothing to pre-generate (sessions stream); warm up on a short fleet
    // drawn from a different base seed so no timed session is pre-run.
    FleetConfig warm = cfg_;
    warm.sessions = kWarmSessions;
    warm.seed = ~opts_.seed;
    run_fleet(warm);
  }

  void teardown() override { TraceCache::instance().clear(); }

  unsigned jobs() const override { return opts_.jobs; }

  RunOutput run() override { return output(run_fleet(cfg_)); }

  RunOutput run_traced(SpanLog& log) override {
    reset_fleet_counters();
    FleetResult r;
    {
      SpanLog::Scope s(log, "exp.run_fleet");
      r = run_fleet(cfg_);
    }
    shard_merges_ = fleet_counters().shard_merges;
    return output(r);
  }

  std::pair<std::uint64_t, std::uint64_t> spot_check() override {
    // One seed-chosen session: streamed per-point vs materialized + batched.
    const ScenarioConfig sc = sample_session(
        cfg_.mix, sweep_point_seed(cfg_.seed, opts_.seed % kSessions));
    ScenarioStream stream(sc);
    const SimResult r = simulate(stream, *build(design()), cfg_.sim);
    stream.reset();
    const Trace t = materialize(stream);
    const bool ok = batched_cell_matches(t, design(), cfg_.sim,
                                         result_to_record_json(r));
    return {1, ok ? 0 : 1};
  }

  Analysis analyse(SpanLog& log) override {
    // The first kProbeSessions sessions of the timed fleet, layer by layer.
    Analysis a;
    std::vector<Trace> traces;
    std::vector<std::string> expected;
    double gen_s = 0.0;
    std::uint64_t records = 0;
    for (std::uint64_t i = 0; i < kProbeSessions; ++i) {
      const ScenarioConfig sc =
          sample_session(cfg_.mix, sweep_point_seed(cfg_.seed, i));
      traces.push_back(timed(log, "workload.gen", gen_s, [&] {
        ScenarioStream s(sc);
        return materialize(s);
      }));
      records += traces.back().size();
      ScenarioStream stream(sc);
      std::unique_ptr<L2Interface> l2;
      {
        SpanLog::Scope s(log, "core.build");
        l2 = build(design());
      }
      SpanLog::Scope s(log, "sim.per_point");
      expected.push_back(
          result_to_record_json(simulate(stream, *l2, cfg_.sim)));
    }
    a.metrics.push_back({"workload.gen_s", gen_s, "s"});
    a.metrics.push_back({"workload.gen_records_per_s",
                         ratio(static_cast<double>(records), gen_s), "1/s"});
    std::vector<const Trace*> ptrs;
    for (const Trace& t : traces) ptrs.push_back(&t);
    const LayerSplit split =
        layer_split(ptrs, {design()}, cfg_.sim, expected, log);
    add_split_metrics(a.metrics, split);
    add_cell_metrics(a.metrics, split.lanes);
    a.metrics.push_back({"exp.fleet_shard_merges",
                         static_cast<double>(shard_merges_), "count"});
    a.checked = split.checked;
    a.mismatched = split.mismatched;
    return a;
  }

 private:
  static constexpr std::uint64_t kSessions = 512;
  static constexpr std::uint64_t kWarmSessions = 32;
  static constexpr std::uint64_t kProbeSessions = 32;

  Design design() const {
    return {scheme_name(cfg_.scheme), cfg_.scheme, cfg_.params};
  }

  static RunOutput output(const FleetResult& r) {
    RunOutput o;
    o.points = r.acc.sessions;
    o.sim_records = r.acc.records;
    Digest dg;
    dg.add(static_cast<double>(r.acc.sessions));
    dg.add(static_cast<double>(r.acc.records));
    for (const FleetMetric* m :
         {&r.acc.cache_energy_nj, &r.acc.total_energy_nj, &r.acc.cpi}) {
      for (double q : {0.5, 0.95, 0.99}) dg.add(m->sketch.quantile(q));
      dg.add(m->sketch.max());
      dg.add(m->stat.mean());
    }
    o.digest = dg.hex();
    return o;
  }

  WorkloadOptions opts_;
  FleetConfig cfg_;
  std::uint64_t shard_merges_ = 0;
};

// ---- telemetry: the simrun --metrics --sample=N --trace-evictions path -----

class TelemetryWorkload final : public Workload {
 public:
  explicit TelemetryWorkload(WorkloadOptions o)
      : opts_(o), designs_(obs_designs()) {}

  void setup() override {
    traces_ = cached_suite(obs_apps(), kLen, opts_.seed);
    warm_designs(designs_);
  }

  void teardown() override {
    traces_.clear();
    cells_.clear();
    TraceCache::instance().clear();
  }

  /// Serial, like simrun: one point at a time.
  unsigned jobs() const override { return 1; }

  RunOutput run() override { return sweep(nullptr); }
  RunOutput run_traced(SpanLog& log) override { return sweep(&log); }

  std::pair<std::uint64_t, std::uint64_t> spot_check() override {
    // Telemetry is read-only: the session-free run must give the same bytes.
    const std::size_t c = opts_.seed % cells_.size();
    const SimResult r = simulate(*traces_[c % traces_.size()],
                                 build(designs_[c / traces_.size()]));
    return {1, result_to_record_json(r) == cells_[c].record ? 0 : 1};
  }

  Analysis analyse(SpanLog& log) override {
    Analysis a;
    add_gen_metrics(a.metrics, obs_apps(), kLen, opts_.seed, log);
    add_obs_metrics(a, raw(traces_), designs_, log);
    // cells_ is indexed design * traces + trace, the order layer_split uses.
    std::vector<std::string> expected;
    for (const TelemetryCell& c : cells_) expected.push_back(c.record);
    const LayerSplit split =
        layer_split(raw(traces_), designs_, SimOptions{}, expected, log);
    add_split_metrics(a.metrics, split);
    add_cell_metrics(a.metrics, split.lanes);
    a.checked += split.checked;
    a.mismatched += split.mismatched;
    return a;
  }

 private:
  static constexpr std::uint64_t kLen = 1'000'000;

  RunOutput sweep(SpanLog* log) {
    const std::size_t w_count = traces_.size();
    cells_.clear();
    for (std::size_t c = 0; c < designs_.size() * w_count; ++c) {
      cells_.push_back(telemetry_cell(*traces_[c % w_count],
                                      designs_[c / w_count], log));
    }
    RunOutput o;
    o.points = cells_.size();
    o.sim_records = total_records(raw(traces_)) * designs_.size();
    Digest dg;
    for (const TelemetryCell& c : cells_) {
      dg.add(c.record);
      dg.add(static_cast<double>(c.events));
      dg.add(static_cast<double>(c.bytes));
    }
    o.digest = dg.hex();
    return o;
  }

  WorkloadOptions opts_;
  std::vector<Design> designs_;
  std::vector<std::shared_ptr<const Trace>> traces_;
  std::vector<TelemetryCell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts) {
  if (name == "headline") return std::make_unique<GridWorkload>(opts, false);
  if (name == "sweep") return std::make_unique<GridWorkload>(opts, true);
  if (name == "fleet") return std::make_unique<FleetWorkload>(opts);
  if (name == "telemetry") return std::make_unique<TelemetryWorkload>(opts);
  return nullptr;
}

}  // namespace mcbench
