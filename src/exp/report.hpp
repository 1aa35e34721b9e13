#pragma once
/// \file report.hpp
/// Shared report plumbing for the bench binaries: banner, results
/// directory, and the standard headline table rendering.

#include <string>
#include <vector>

#include "common/table.hpp"
#include "exp/runner.hpp"

namespace mobcache {

/// Prints the experiment banner (id + title + provenance line).
void print_banner(const std::string& experiment_id, const std::string& title);

/// Path under the results directory (MOBCACHE_RESULTS_DIR or ./results),
/// e.g. results_path("e9_headline.csv").
std::string results_path(const std::string& filename);

/// Renders the standard scheme-comparison table (E4/E9 shape): capacity,
/// avg enabled capacity, miss rate, normalized cache energy / total energy /
/// execution time.
TablePrinter headline_table(const std::vector<SchemeSuiteResult>& results);

/// Prints a table and also writes it as CSV; reports the CSV path. A CSV
/// that cannot be written throws std::runtime_error naming its path (exit 5
/// under guarded_main).
void emit(const TablePrinter& table, const std::string& csv_name);

}  // namespace mobcache
