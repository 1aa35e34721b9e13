#pragma once
/// \file trace_export.hpp
/// Export sinks for the observability layer, built on the shared JsonWriter:
///  - JSONL: one self-describing JSON object per line — trivially parsed
///    line-by-line by scripts (scripts/plot_timeline.py).
///  - Chrome trace_event: loads directly in chrome://tracing / Perfetto;
///    structured events become instants, epoch samples become counter
///    tracks (way allocation, miss rate) with one process per
///    workload/scheme run.
///
/// A TraceSink buffers one normalized record per event of the Telemetry
/// sessions attached to it; render()/write_file() serializes them after the
/// run.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.hpp"
#include "obs/telemetry.hpp"

namespace mobcache {

enum class TraceFormat : std::uint8_t { Jsonl, ChromeTrace };

/// Accepts "jsonl"/"json" and "chrome"/"trace"/"perfetto".
std::optional<TraceFormat> parse_trace_format(std::string_view s);

struct TraceSinkOptions {
  /// Per-block eviction events are high-volume; opt in explicitly.
  bool include_evictions = false;
};

class TraceSink {
 public:
  explicit TraceSink(TraceFormat format = TraceFormat::Jsonl,
                     TraceSinkOptions opts = {});

  /// Makes this the sink of session `t`: every event `t` records from now
  /// on lands here, labeled with `t`'s context (workload/scheme) at that
  /// moment, so one sink can span a whole suite run, one session after
  /// another. The sink must outlive `t`'s last record().
  void attach(Telemetry& t);

  /// Appends the record(s) of one event of session `t` (Telemetry::record
  /// calls these). Evictions are dropped unless include_evictions is set.
  void add(const Telemetry& t, const PartitionResizeEvent& e);
  void add(const Telemetry& t, const DrowsyTransitionEvent& e);
  void add(const Telemetry& t, const RefreshBurstEvent& e);
  void add(const Telemetry& t, const BypassDecisionEvent& e);
  void add(const Telemetry& t, const EvictionEvent& e);
  void add(const Telemetry& t, const EpochSample& s);
  void add(const Telemetry& t, const FaultEvent& e);
  void add(const Telemetry& t, const WayQuarantineEvent& e);

  std::size_t event_count() const { return records_.size(); }

  /// Serializes all buffered records in the sink's format.
  std::string render() const;
  bool write_file(const std::string& path) const;

 private:
  struct Arg {
    std::string key;
    double num = 0.0;
    std::string str;
    bool is_num = true;
  };
  struct Record {
    std::string name;  ///< event type ("partition-resize", "l2.ways", ...)
    char phase = 'i';  ///< Chrome ph: 'i' instant, 'C' counter
    Cycle cycle = 0;
    std::uint32_t track = 0;  ///< index into tracks_
    std::vector<Arg> args;
  };

  static Arg num(std::string key, double v) {
    return {std::move(key), v, {}, true};
  }
  static Arg str(std::string key, std::string v) {
    return {std::move(key), 0.0, std::move(v), false};
  }

  std::uint32_t track_of(const Telemetry& t);
  void push(const Telemetry& t, std::string name, char phase, Cycle cycle,
            std::vector<Arg> args);
  std::string render_jsonl() const;
  std::string render_chrome() const;

  TraceFormat format_;
  TraceSinkOptions opts_;
  std::vector<std::string> tracks_;  ///< "workload/scheme" labels
  std::vector<Record> records_;
};

/// Serializes a registry (counters, gauges, stats, histograms) as one JSON
/// object, e.g. for a --metrics-out file.
void write_metrics_json(JsonWriter& w, const MetricRegistry& reg);

/// write_metrics_json() into a fresh writer — the one-liner for callers
/// that want the document bytes (simrun --metrics=FILE).
std::string metrics_json_string(const MetricRegistry& reg);

}  // namespace mobcache
