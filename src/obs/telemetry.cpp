#include "obs/telemetry.hpp"

#include "obs/trace_export.hpp"

namespace mobcache {

void Telemetry::record(const PartitionResizeEvent& e) {
  metrics_.counter("l2.partition.resizes").add();
  metrics_.counter("l2.partition.flush_writebacks").add(e.flush_writebacks);
  metrics_.gauge("l2.partition.user_ways").set(e.new_user_ways);
  metrics_.gauge("l2.partition.kernel_ways").set(e.new_kernel_ways);
  if (sink_) sink_->add(*this, e);
}

void Telemetry::record(const DrowsyTransitionEvent& e) {
  metrics_.counter("l2.drowsy.windows").add();
  metrics_.counter("l2.drowsy.wakeups").add(e.wakeups);
  metrics_.counter("l2.drowsy.lines_drowsed").add(e.lines_drowsed);
  if (sink_) sink_->add(*this, e);
}

void Telemetry::record(const RefreshBurstEvent& e) {
  metrics_.counter("l2.refresh.bursts").add();
  metrics_.counter("l2.refresh.scrubbed").add(e.refreshed);
  metrics_.counter("l2.refresh.expired_clean").add(e.expired_clean);
  metrics_.counter("l2.refresh.expired_dirty").add(e.expired_dirty);
  if (e.repaired != 0) metrics_.counter("l2.refresh.repaired").add(e.repaired);
  if (e.fault_lost != 0) {
    metrics_.counter("l2.refresh.fault_lost").add(e.fault_lost);
  }
  if (sink_) sink_->add(*this, e);
}

void Telemetry::record(const BypassDecisionEvent& e) {
  metrics_.counter("l2.bypass.decisions").add();
  if (e.bypassed) metrics_.counter("l2.bypass.bypassed").add();
  if (sink_) sink_->add(*this, e);
}

void Telemetry::record(const EvictionEvent& e) {
  metrics_.counter("l2.evictions").add();
  metrics_.histogram("l2.block.residency_cycles")
      .add(e.evict_cycle >= e.fill_cycle ? e.evict_cycle - e.fill_cycle : 0);
  if (sink_) sink_->add(*this, e);
}

void Telemetry::record(const FaultEvent& e) {
  if (e.outcome == FaultReadOutcome::Corrected) {
    metrics_.counter("l2.fault.ecc_corrected").add();
  } else if (e.outcome == FaultReadOutcome::Lost) {
    metrics_.counter("l2.fault.lost").add();
    if (e.dirty_lost) metrics_.counter("l2.fault.dirty_lost").add();
  }
  if (sink_) sink_->add(*this, e);
}

void Telemetry::record(const WayQuarantineEvent& e) {
  metrics_.counter("l2.repair.quarantines").add();
  metrics_.counter("l2.repair.flush_writebacks").add(e.flush_writebacks);
  metrics_.gauge("l2.repair.healthy_ways").set(e.healthy_ways);
  if (sink_) sink_->add(*this, e);
}

void Telemetry::record(const EpochSample& s) {
  metrics_.counter("l2.epochs").add();
  metrics_.stat("l2.epoch.miss_rate").add(s.miss_rate());
  metrics_.stat("l2.epoch.enabled_bytes").add(s.enabled_bytes);
  if (sink_) sink_->add(*this, s);
}

}  // namespace mobcache
