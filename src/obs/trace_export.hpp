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
/// A TraceSink subscribes to a Telemetry session's ObserverHub and buffers
/// normalized records; render()/write_file() serializes them after the run.

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

  /// Subscribes to every event channel of `t`'s hub. Events are labeled
  /// with the telemetry context (workload/scheme) current at emit time, so
  /// one sink can span a whole suite run. `t` must outlive the sink's use.
  void attach(Telemetry& t);

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

  std::uint32_t track_of(const Telemetry& t);
  void add(const Telemetry& t, std::string name, char phase, Cycle cycle,
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

/// Serializes the retained epoch window as a JSON array of sample objects
/// (plus a truncation marker when the ring dropped early epochs).
void write_epoch_series_json(JsonWriter& w, const EpochSeries& series);

/// Full telemetry dump: context + metrics + epoch series.
std::string telemetry_to_json(const Telemetry& t);

}  // namespace mobcache
