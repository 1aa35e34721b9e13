#include "common/table.hpp"

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/atomic_file.hpp"

namespace mobcache {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      out += c == 0 ? "| " : " | ";
      const std::string& cell = c < row.size() ? row[c] : headers_[c];
      out += cell;
      out.append(width[c] - cell.size(), ' ');
    }
    out += " |\n";
  };

  std::string out;
  emit_row(headers_, out);
  out += "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(width[c] + 2, '-');
    out += "|";
  }
  out += "\n";
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

void TablePrinter::print() const { std::cout << render(); }

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string TablePrinter::to_csv() const {
  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ',';
      out += csv_escape(row[c]);
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out;
}

bool TablePrinter::write_csv(const std::string& path) const {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  return write_file(path, to_csv());
}

std::string format_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string format_count(unsigned long long v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace mobcache
