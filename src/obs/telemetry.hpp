#pragma once
/// \file telemetry.hpp
/// Telemetry — the per-run observability session: a MetricRegistry of
/// named aggregates plus, optionally, the one TraceSink (obs/trace_export)
/// that keeps every event for export.
///
/// Instrumented code holds `Telemetry*` (null = detached) and calls
/// record(event); record() updates the standard metrics for that event
/// type and passes the event to the attached sink. With no Telemetry
/// attached an instrumentation site costs exactly one pointer test, keeping
/// simulate() results and throughput identical to an uninstrumented build.

#include <string>

#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace mobcache {

class TraceSink;

class Telemetry {
 public:
  Telemetry() = default;
  // The design and simulate()'s eviction bridge hold the session's address
  // during a run; keep the session pinned.
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  /// Labels carried by exported events (set per simulate() call).
  void set_context(std::string workload, std::string scheme) {
    workload_ = std::move(workload);
    scheme_ = std::move(scheme);
  }
  const std::string& workload() const { return workload_; }
  const std::string& scheme() const { return scheme_; }

  /// simulate()'s sampling cadence in trace records, for every design. At
  /// 0 the sampler is off and only the dynamic L2 samples, at its
  /// repartition epochs.
  void set_sample_interval(std::uint64_t accesses) {
    sample_interval_ = accesses;
  }
  std::uint64_t sample_interval() const { return sample_interval_; }

  void record(const PartitionResizeEvent& e);
  void record(const DrowsyTransitionEvent& e);
  void record(const RefreshBurstEvent& e);
  void record(const BypassDecisionEvent& e);
  void record(const EvictionEvent& e);
  void record(const EpochSample& s);
  void record(const FaultEvent& e);
  void record(const WayQuarantineEvent& e);

 private:
  friend class TraceSink;  // attach() sets sink_

  MetricRegistry metrics_;
  TraceSink* sink_ = nullptr;  ///< must outlive the session's records
  std::string workload_;
  std::string scheme_;
  std::uint64_t sample_interval_ = 0;
};

}  // namespace mobcache
