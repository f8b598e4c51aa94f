// Fixed-width console tables plus CSV emission.
//
// Every benchmark binary prints the rows the corresponding paper figure/table
// reports, and mirrors them into a CSV file for plotting, via this one class.
#pragma once

#include <string>
#include <vector>

namespace neutral {

class ResultTable {
 public:
  /// `title` is printed above the table; `columns` are the header names.
  ResultTable(std::string title, std::vector<std::string> columns);

  /// Append a row; cells are preformatted strings (see `cell` helpers).
  void add_row(std::vector<std::string> cells);

  /// Render to stdout with aligned columns.
  void print() const;

  /// Write `<path>` as RFC-4180-ish CSV (header + rows).
  void write_csv(const std::string& path) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Formatting helpers for uniform numeric cells.
  static std::string cell(double v, int precision = 3);
  static std::string cell(long v);
  static std::string cell(unsigned long long v);
  /// Round-trippable %.17g cell — for values diffed bit-for-bit across
  /// runs (decomposed-run checksums).
  static std::string cell_full(double v);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace neutral
