#pragma once
/// \file metrics.hpp
/// Named-metric registry for in-simulation observability.
///
/// A Telemetry session registers counters, gauges, stats and histograms by
/// dotted name ("l2.partition.resizes", "l2.refresh.scrubbed") and bumps
/// them during the run; exporters walk the registry afterwards. Metric
/// handles are stable for the registry's lifetime (node-based storage).

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace mobcache {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t d = 1) { v_ += d; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-written instantaneous value (way counts, occupancy, ...).
class Gauge {
 public:
  void set(double v) {
    v_ = v;
    set_ = true;
  }
  double value() const { return v_; }
  bool was_set() const { return set_; }

 private:
  double v_ = 0.0;
  bool set_ = false;
};

class MetricRegistry {
 public:
  /// Lookup-or-create; the returned reference stays valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Log2Histogram& histogram(const std::string& name) { return hists_[name]; }
  RunningStat& stat(const std::string& name) { return stats_[name]; }

  /// Cross-workload aggregation: counters add, histograms/stats merge
  /// (parallel Welford), gauges take the other side's last-written value
  /// (an instantaneous reading has no meaningful sum).
  void merge(const MetricRegistry& other);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Log2Histogram>& histograms() const {
    return hists_;
  }
  const std::map<std::string, RunningStat>& stats() const { return stats_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && hists_.empty() &&
           stats_.empty();
  }

 private:
  // std::map: node-based, so metric addresses survive later registrations.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Log2Histogram> hists_;
  std::map<std::string, RunningStat> stats_;
};

}  // namespace mobcache
