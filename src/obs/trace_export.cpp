#include "obs/trace_export.hpp"

#include <cstdio>

#include "common/atomic_file.hpp"

namespace mobcache {

namespace {

/// Simulated cycles → trace microseconds at the platform's 1 GHz clock.
double cycles_to_us(Cycle c) { return static_cast<double>(c) / 1000.0; }

std::string hex_addr(Addr a) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(a));
  return buf;
}

}  // namespace

std::optional<TraceFormat> parse_trace_format(std::string_view s) {
  if (s == "jsonl" || s == "json") return TraceFormat::Jsonl;
  if (s == "chrome" || s == "trace" || s == "perfetto")
    return TraceFormat::ChromeTrace;
  return std::nullopt;
}

TraceSink::TraceSink(TraceFormat format, TraceSinkOptions opts)
    : format_(format), opts_(opts) {}

std::uint32_t TraceSink::track_of(const Telemetry& t) {
  std::string label = t.workload();
  if (!t.scheme().empty()) {
    if (!label.empty()) label += '/';
    label += t.scheme();
  }
  if (label.empty()) label = "run";
  for (std::uint32_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == label) return i;
  }
  tracks_.push_back(std::move(label));
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void TraceSink::push(const Telemetry& t, std::string name, char phase,
                     Cycle cycle, std::vector<Arg> args) {
  records_.push_back(
      {std::move(name), phase, cycle, track_of(t), std::move(args)});
}

void TraceSink::attach(Telemetry& t) { t.sink_ = this; }

void TraceSink::add(const Telemetry& t, const PartitionResizeEvent& e) {
  push(t, "partition-resize", 'i', e.cycle,
       {num("old_user_ways", e.old_user_ways),
        num("old_kernel_ways", e.old_kernel_ways),
        num("new_user_ways", e.new_user_ways),
        num("new_kernel_ways", e.new_kernel_ways),
        num("flush_writebacks", static_cast<double>(e.flush_writebacks))});
}

void TraceSink::add(const Telemetry& t, const DrowsyTransitionEvent& e) {
  push(t, "drowsy-transition", 'i', e.cycle,
       {num("lines_drowsed", static_cast<double>(e.lines_drowsed)),
        num("wakeups", static_cast<double>(e.wakeups))});
}

void TraceSink::add(const Telemetry& t, const RefreshBurstEvent& e) {
  push(t, "refresh-burst", 'i', e.cycle,
       {num("refreshed", static_cast<double>(e.refreshed)),
        num("expired_clean", static_cast<double>(e.expired_clean)),
        num("expired_dirty", static_cast<double>(e.expired_dirty)),
        num("repaired", static_cast<double>(e.repaired)),
        num("fault_lost", static_cast<double>(e.fault_lost))});
}

void TraceSink::add(const Telemetry& t, const FaultEvent& e) {
  push(t, "fault", 'i', e.cycle,
       {str("line", hex_addr(e.line)),
        str("mode", std::string(to_string(e.mode))),
        str("outcome", e.outcome == FaultReadOutcome::Corrected
                           ? "corrected"
                           : (e.outcome == FaultReadOutcome::Lost ? "lost"
                                                                  : "silent")),
        num("dirty_lost", e.dirty_lost ? 1.0 : 0.0)});
}

void TraceSink::add(const Telemetry& t, const WayQuarantineEvent& e) {
  push(t, "way-quarantine", 'i', e.cycle,
       {str("segment", e.segment), num("way", e.way), num("faults", e.faults),
        num("healthy_ways", e.healthy_ways),
        num("flush_writebacks", static_cast<double>(e.flush_writebacks))});
}

void TraceSink::add(const Telemetry& t, const BypassDecisionEvent& e) {
  push(t, "bypass-decision", 'i', e.cycle,
       {str("line", hex_addr(e.line)),
        str("mode", std::string(to_string(e.mode))),
        num("bypassed", e.bypassed ? 1.0 : 0.0)});
}

void TraceSink::add(const Telemetry& t, const EpochSample& s) {
  push(t, "l2.ways", 'C', s.cycle,
       {num("user", s.user_ways), num("kernel", s.kernel_ways)});
  push(t, "l2.epoch", 'C', s.cycle,
       {num("miss_rate", s.miss_rate()),
        num("enabled_kb", s.enabled_bytes / 1024.0),
        num("awake_lines", static_cast<double>(s.drowsy_awake_lines))});
}

void TraceSink::add(const Telemetry& t, const EvictionEvent& e) {
  if (!opts_.include_evictions) return;
  push(t, "eviction", 'i', e.evict_cycle,
       {str("line", hex_addr(e.line)),
        str("owner", std::string(to_string(e.owner))),
        num("fill_cycle", static_cast<double>(e.fill_cycle)),
        num("access_count", e.access_count),
        num("dirty", e.dirty ? 1.0 : 0.0)});
}

namespace {

void write_arg_fields(JsonWriter& w, const std::string& key, bool is_num,
                      double num, const std::string& str) {
  w.key(key);
  if (is_num) {
    // Integral values print without a fraction for clean downstream parsing.
    if (num == static_cast<double>(static_cast<std::int64_t>(num))) {
      w.value(static_cast<std::int64_t>(num));
    } else {
      w.value(num);
    }
  } else {
    w.value(str);
  }
}

}  // namespace

std::string TraceSink::render_jsonl() const {
  std::string out;
  for (const Record& r : records_) {
    JsonWriter w;
    w.begin_object();
    w.key("type").value(r.name);
    w.key("cycle").value(static_cast<std::uint64_t>(r.cycle));
    w.key("track").value(tracks_[r.track]);
    for (const Arg& a : r.args) write_arg_fields(w, a.key, a.is_num, a.num, a.str);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

std::string TraceSink::render_chrome() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents");
  w.begin_array();
  // One trace process per workload/scheme run so counter tracks (which
  // Chrome groups by pid) stay separate.
  for (std::uint32_t pid = 0; pid < tracks_.size(); ++pid) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(static_cast<std::uint64_t>(pid));
    w.key("tid").value(std::uint64_t{0});
    w.key("args");
    w.begin_object();
    w.key("name").value(tracks_[pid]);
    w.end_object();
    w.end_object();
  }
  for (const Record& r : records_) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ph").value(std::string(1, r.phase));
    w.key("ts").value(cycles_to_us(r.cycle));
    w.key("pid").value(static_cast<std::uint64_t>(r.track));
    w.key("tid").value(std::uint64_t{0});
    if (r.phase == 'i') w.key("s").value("p");  // process-scoped instant
    w.key("args");
    w.begin_object();
    for (const Arg& a : r.args) write_arg_fields(w, a.key, a.is_num, a.num, a.str);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string TraceSink::render() const {
  return format_ == TraceFormat::Jsonl ? render_jsonl() : render_chrome();
}

bool TraceSink::write_file(const std::string& path) const {
  return mobcache::write_file(path, render());
}

void write_metrics_json(JsonWriter& w, const MetricRegistry& reg) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : reg.counters()) w.key(name).value(c.value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : reg.gauges()) w.key(name).value(g.value());
  w.end_object();
  w.key("stats");
  w.begin_object();
  for (const auto& [name, s] : reg.stats()) {
    w.key(name);
    w.begin_object();
    w.key("count").value(s.count());
    w.key("mean").value(s.mean());
    w.key("stddev").value(s.stddev());
    w.key("min").value(s.min());
    w.key("max").value(s.max());
    w.end_object();
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : reg.histograms()) {
    w.key(name);
    w.begin_object();
    w.key("total").value(h.total());
    w.key("log2_buckets");
    w.begin_array();
    for (std::uint64_t b : h.buckets()) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string metrics_json_string(const MetricRegistry& reg) {
  JsonWriter w;
  write_metrics_json(w, reg);
  return w.str();
}

}  // namespace mobcache
