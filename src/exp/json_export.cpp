#include "exp/json_export.hpp"

#include <filesystem>

#include "common/atomic_file.hpp"
#include "exp/report.hpp"

namespace mobcache {

namespace {

void write_cache_stats(JsonWriter& w, const CacheStats& s) {
  w.begin_object();
  w.key("accesses").value(s.total_accesses());
  w.key("hits").value(s.total_hits());
  w.key("miss_rate").value(s.miss_rate());
  w.key("kernel_fraction").value(s.kernel_access_fraction());
  w.key("writebacks").value(s.writebacks);
  w.key("cross_mode_evictions").value(s.cross_mode_evictions);
  w.key("expired_blocks").value(s.expired_blocks);
  w.key("refreshes").value(s.refreshes);
  w.key("prefetch_fills").value(s.prefetch_fills);
  w.key("useful_prefetches").value(s.useful_prefetches);
  w.key("write_faults").value(s.write_faults);
  w.key("transient_upsets").value(s.transient_upsets);
  w.key("ecc_corrections").value(s.ecc_corrections);
  w.key("fault_losses").value(s.fault_losses);
  w.key("fault_lost_dirty").value(s.fault_lost_dirty);
  w.key("scrub_repairs").value(s.scrub_repairs);
  w.key("silent_faults").value(s.silent_faults);
  w.end_object();
}

}  // namespace

void write_sim_result(JsonWriter& w, const SimResult& r) {
  w.begin_object();
  w.key("workload").value(r.workload);
  w.key("scheme").value(r.scheme);
  w.key("records").value(r.records);
  w.key("cycles").value(r.cycles);
  w.key("cpi").value(r.cpi);
  w.key("stall_l2_hit_cycles").value(r.stall_l2_hit_cycles);
  w.key("stall_l2_miss_cycles").value(r.stall_l2_miss_cycles);
  w.key("l2_capacity_bytes").value(r.l2_capacity_bytes);
  w.key("l2_avg_enabled_bytes").value(r.l2_avg_enabled_bytes);
  w.key("l2_quarantined_ways")
      .value(static_cast<std::uint64_t>(r.l2_quarantined_ways));
  w.key("edp").value(r.edp());
  w.key("energy_nj");
  w.begin_object();
  w.key("leakage").value(r.l2_energy.leakage_nj);
  w.key("read").value(r.l2_energy.read_nj);
  w.key("write").value(r.l2_energy.write_nj);
  w.key("refresh").value(r.l2_energy.refresh_nj);
  w.key("ecc").value(r.l2_energy.ecc_nj);
  w.key("dram").value(r.l2_energy.dram_nj);
  w.key("cache_total").value(r.l2_energy.cache_nj());
  w.key("l1").value(r.l1_energy_nj);
  w.end_object();
  w.key("l2");
  write_cache_stats(w, r.l2);
  w.key("l1i");
  write_cache_stats(w, r.l1i);
  w.key("l1d");
  write_cache_stats(w, r.l1d);
  w.end_object();
}

std::string experiment_to_json(const std::string& experiment_id,
                               const std::vector<SchemeSuiteResult>& results) {
  JsonWriter w;
  w.begin_object();
  w.key("experiment").value(experiment_id);
  w.key("schemes");
  w.begin_array();
  for (const SchemeSuiteResult& r : results) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("norm_cache_energy").value(r.norm_cache_energy);
    w.key("norm_total_energy").value(r.norm_total_energy);
    w.key("norm_exec_time").value(r.norm_exec_time);
    w.key("avg_miss_rate").value(r.avg_miss_rate);
    w.key("per_workload");
    w.begin_array();
    for (const SimResult& s : r.per_workload) write_sim_result(w, s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool write_experiment_json(const std::string& experiment_id,
                           const std::vector<SchemeSuiteResult>& results,
                           const std::string& filename) {
  const std::string path = results_path(filename);
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  return write_file(path, experiment_to_json(experiment_id, results));
}

}  // namespace mobcache
