/// \file layers.cpp
/// Clocks, digest, span log and the serial per-layer analysis pass.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "cache/set_assoc_cache.hpp"
#include "exp/result_store.hpp"
#include "sim/batch.hpp"

namespace mcbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Digest::add(std::string_view s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  h_ ^= 0x1f;  // field separator, so ("ab","c") != ("a","bc")
  h_ *= 0x100000001b3ull;
}

void Digest::add(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  add(std::string_view(buf));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

// ---- span log --------------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> t_open;
}  // namespace

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), id_(log.open(std::move(name))) {}

SpanLog::Scope::~Scope() { log_.close(id_); }

std::int64_t SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  s.start = wall_now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  t_open.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  const double end = wall_now();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

double SpanLog::total(std::string_view name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end - s.start);
  return out;
}

std::string SpanLog::self_time_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    ++r.count;
    r.total += d;
    r.self += d - child[i];
  }
  std::string out;
  char buf[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf, "span %-20s n=%-5" PRIu64
                  " total=%.4fs self=%.4fs\n",
                  name.c_str(), r.count, r.total, r.self);
    out += buf;
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%" PRId64 ",\"thread\":%" PRIu64 "}\n",
                  s.name.c_str(), s.start, s.end, s.parent, s.thread);
    f << buf;
  }
  return static_cast<bool>(f);
}

// ---- designs and the analysis pass ----------------------------------------

std::unique_ptr<L2Interface> build(const Design& d) {
  return build_scheme(d.kind, d.params);
}

namespace {

/// The bare array(s) a design's L2 is built around: one shared array, or a
/// user and a kernel segment for the static partitions. Geometry and
/// replacement policy only; retention, banks, energy and refresh are the
/// wrapper's work and stay out.
std::vector<std::unique_ptr<SetAssocCache>> bare_arrays(const Design& d) {
  const SchemeParams& p = d.params;
  auto make = [&](std::uint64_t bytes, std::uint32_t assoc) {
    CacheConfig c;
    c.name = "bare";
    c.size_bytes = bytes;
    c.assoc = assoc;
    c.repl = p.repl;
    c.xor_index = p.xor_index;
    return std::make_unique<SetAssocCache>(c);
  };
  std::vector<std::unique_ptr<SetAssocCache>> out;
  switch (d.kind) {
    case SchemeKind::StaticPartSram:
    case SchemeKind::StaticPartMrstt:
      out.push_back(make(p.sp_user_bytes, p.sp_user_assoc));
      out.push_back(make(p.sp_kernel_bytes, p.sp_kernel_assoc));
      break;
    case SchemeKind::ShrunkSram:
      out.push_back(make(p.shrunk_bytes, p.shrunk_assoc));
      break;
    default:
      out.push_back(make(p.baseline_bytes, p.baseline_assoc));
  }
  return out;
}

/// Replays every demand line of `s` into the bare arrays (kernel-mode lines
/// go to the second array when there is one). Returns the hit count so the
/// loop cannot be optimized away.
std::uint64_t replay_bare(const DemandStream& s,
                          std::vector<std::unique_ptr<SetAssocCache>>& arrays) {
  std::uint64_t hits = 0;
  const bool split = arrays.size() > 1;
  for (std::size_t e = 0; e < s.size(); ++e) {
    const std::uint8_t f = s.flags[e];
    const bool kernel = (f & DemandStream::kKernelMode) != 0;
    const AccessType type =
        (f & DemandStream::kWrite) != 0 ? AccessType::Write : AccessType::Read;
    SetAssocCache& a = *arrays[split && kernel ? 1 : 0];
    hits += a.access(s.line[e], type, kernel ? Mode::Kernel : Mode::User,
                     static_cast<Cycle>(s.record[e]) * 2)
                .hit;
  }
  return hits;
}

/// Keeps the bare replay's result observable so it cannot be elided.
volatile std::uint64_t g_bare_hits = 0;

}  // namespace

LayerSplit layer_split(const std::vector<const Trace*>& traces,
                       const std::vector<Design>& designs,
                       const SimOptions& opts,
                       const std::vector<std::string>& expected,
                       SpanLog& log) {
  LayerSplit out;
  const std::size_t w_count = traces.size();
  std::vector<std::optional<SimResult>> cells(designs.size() * w_count);
  for (std::size_t w = 0; w < w_count; ++w) {
    const DemandStream stream = timed(log, "sim.l1_pass", out.l1_s, [&] {
      return build_demand_stream(*traces[w], opts);
    });
    out.records += traces[w]->size();
    out.demand += stream.size();

    std::vector<std::unique_ptr<L2Interface>> owned;
    std::vector<L2Interface*> lanes;
    for (const Design& d : designs) {
      SpanLog::Scope scope(log, "core.build");
      owned.push_back(build(d));
      lanes.push_back(owned.back().get());
    }
    std::vector<BatchLaneOutcome> lane_out =
        timed(log, "sim.l2_replay", out.replay_s,
              [&] { return simulate_batch_lanes(stream, lanes, opts); });
    out.lane_accesses += stream.size() * lanes.size();

    for (std::size_t d = 0; d < designs.size(); ++d) {
      ++out.checked;
      if (!lane_out[d].ok() || result_to_record_json(*lane_out[d].result) !=
                                   expected[d * w_count + w]) {
        ++out.mismatched;
        continue;
      }
      cells[d * w_count + w] = std::move(*lane_out[d].result);
    }

    for (const Design& d : designs) {
      auto arrays = bare_arrays(d);
      g_bare_hits = g_bare_hits + timed(log, "cache.kernel", out.kernel_s,
                    [&] { return replay_bare(stream, arrays); });
      out.kernel_accesses += stream.size();
    }
  }
  for (std::optional<SimResult>& c : cells)
    if (c) out.lanes.push_back(std::move(*c));
  return out;
}

bool batched_cell_matches(const Trace& trace, const Design& design,
                          const SimOptions& opts, const std::string& expected) {
  const DemandStream stream = build_demand_stream(trace, opts);
  const std::unique_ptr<L2Interface> l2 = build(design);
  std::vector<BatchLaneOutcome> out =
      simulate_batch_lanes(stream, {l2.get()}, opts);
  return out[0].ok() && result_to_record_json(*out[0].result) == expected;
}

}  // namespace mcbench
