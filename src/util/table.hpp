// Paper-style ASCII table printer. Every bench binary emits its results
// through this so the output reads like the table/figure it reproduces.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace byz::util {

/// Column-aligned table with a title, header row, and typed cell helpers.
/// Cells are stored as strings; numeric helpers format consistently.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets the header row; must be called before any data row.
  Table& columns(std::vector<std::string> names);

  /// Starts a new data row.
  Table& row();

  /// Appends one cell to the current row.
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 3);
  Table& cell(std::uint64_t value);
  Table& cell(std::int64_t value);
  Table& cell(int value);
  Table& cell(unsigned value);

  /// Appends a full-width annotation line rendered under the table body.
  Table& note(std::string text);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Structured accessors (the bench JSON emitter serializes tables).
  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
    return notes_;
  }

  /// Renders the aligned table.
  [[nodiscard]] std::string str() const;
  /// Renders as CSV (header + rows, no title).
  [[nodiscard]] std::string csv() const;

  /// Convenience: str() to the stream.
  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

/// Formats a double with fixed precision (shared by Table and CSV code).
[[nodiscard]] std::string format_double(double value, int precision);

}  // namespace byz::util
