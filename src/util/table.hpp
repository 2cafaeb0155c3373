#pragma once

// Console table renderer used by the benchmark harness to print rows in the
// same layout as the paper's tables.

#include <string>
#include <vector>

namespace gvc::util {

/// Column alignment.
enum class Align { kLeft, kRight };

/// Accumulates rows, then renders a padded ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns,
                 std::vector<Align> aligns = {});

  void add_row(std::vector<std::string> cells);

  /// Insert a horizontal separator line before the next row.
  void add_separator();

  /// Render with single-space-padded columns and a header rule.
  std::string render() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::vector<std::string> columns_;
  std::vector<Align> aligns_;
  std::vector<Row> rows_;
};

}  // namespace gvc::util
