// Console table formatter used by the benchmark harness to print the
// paper's tables with aligned columns.
#pragma once

#include <string>
#include <vector>

namespace qnn {

// Column alignment within a cell.
enum class Align { kLeft, kRight };

// A simple text table: set a header, append rows of strings, render.
// Numeric formatting is the caller's job (see format_fixed/format_percent).
class Table {
 public:
  explicit Table(std::vector<std::string> header,
                 std::vector<Align> aligns = {});

  // Appends a row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> cells);

  // Appends a horizontal separator row.
  void add_separator();

  // Renders with 2-space column gaps and a rule under the header.
  std::string to_string() const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<std::string> header_;
  std::vector<Align> aligns_;
  std::vector<Row> rows_;
};

// Formats v with `digits` decimal places (e.g. 3.14159, 2 -> "3.14").
std::string format_fixed(double v, int digits);

// Formats as percentage string with `digits` decimals: 0.8541 -> "85.41".
// Input is the percent value itself, not a fraction.
std::string format_percent(double percent, int digits = 2);

}  // namespace qnn
