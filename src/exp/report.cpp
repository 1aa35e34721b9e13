#include "exp/report.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "common/stats.hpp"

namespace mobcache {

void print_banner(const std::string& experiment_id, const std::string& title) {
  std::cout << "\n=== " << experiment_id << ": " << title << " ===\n"
            << "    (mobcache reproduction of Yan et al., energy-efficient "
               "mobile cache design, DATE'15 / TODAES'17)\n\n";
}

std::string results_path(const std::string& filename) {
  const char* dir = std::getenv("MOBCACHE_RESULTS_DIR");
  std::string base = dir != nullptr ? dir : "results";
  return base + "/" + filename;
}

TablePrinter headline_table(const std::vector<SchemeSuiteResult>& results) {
  TablePrinter t({"scheme", "capacity", "avg-enabled", "L2 miss rate",
                  "norm cache energy", "norm cache+DRAM energy",
                  "norm exec time", "norm EDP"});
  for (const SchemeSuiteResult& r : results) {
    double enabled = 0.0;
    std::uint64_t cap = 0;
    for (const SimResult& s : r.per_workload) {
      enabled += s.l2_avg_enabled_bytes;
      cap = s.l2_capacity_bytes;
    }
    if (!r.per_workload.empty())
      enabled /= static_cast<double>(r.per_workload.size());
    t.add_row({r.name, format_bytes(cap),
               format_bytes(static_cast<std::uint64_t>(enabled)),
               format_percent(r.avg_miss_rate),
               format_double(r.norm_cache_energy, 3),
               format_double(r.norm_total_energy, 3),
               format_double(r.norm_exec_time, 3),
               format_double(r.norm_cache_energy * r.norm_exec_time, 3)});
  }
  return t;
}

void emit(const TablePrinter& table, const std::string& csv_name) {
  table.print();
  const std::string path = results_path(csv_name);
  if (!table.write_csv(path))
    throw std::runtime_error("cannot write '" + path + "'");
  std::cout << "[csv] " << path << "\n";
}

}  // namespace mobcache
