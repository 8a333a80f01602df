#include "util/table.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace byz::util {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

Table& Table::columns(std::vector<std::string> names) {
  if (!rows_.empty()) throw std::logic_error("Table: columns after rows");
  header_ = std::move(names);
  return *this;
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  if (rows_.empty()) throw std::logic_error("Table: cell before row()");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(std::uint64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }
Table& Table::cell(unsigned value) { return cell(std::to_string(value)); }

Table& Table::note(std::string text) {
  notes_.push_back(std::move(text));
  return *this;
}

namespace {

std::vector<std::size_t> column_widths(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size(), 0);
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& r : rows) {
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  return widths;
}

void append_padded(std::string& out, const std::string& s, std::size_t width) {
  // Right-align numeric-looking cells, left-align text.
  const bool numeric =
      !s.empty() && (std::isdigit(static_cast<unsigned char>(s[0])) ||
                     s[0] == '-' || s[0] == '+' || s[0] == '.');
  if (numeric) {
    out.append(width - std::min(width, s.size()), ' ');
    out += s;
  } else {
    out += s;
    out.append(width - std::min(width, s.size()), ' ');
  }
}

}  // namespace

std::string Table::str() const {
  const auto widths = column_widths(header_, rows_);
  std::string out;
  out += "== " + title_ + " ==\n";
  auto hline = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out += '+';
      out.append(widths[c] + 2, '-');
    }
    out += "+\n";
  };
  hline();
  out += "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    out += ' ';
    append_padded(out, header_[c], widths[c]);
    out += " |";
  }
  out += '\n';
  hline();
  for (const auto& r : rows_) {
    out += "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out += ' ';
      append_padded(out, c < r.size() ? r[c] : std::string(), widths[c]);
      out += " |";
    }
    out += '\n';
  }
  hline();
  for (const auto& n : notes_) out += "  " + n + '\n';
  return out;
}

std::string Table::csv() const {
  std::string out;
  auto emit_row = [&out](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out += ',';
      const bool quote = cells[c].find_first_of(",\"\n") != std::string::npos;
      if (quote) {
        out += '"';
        for (const char ch : cells[c]) {
          if (ch == '"') out += '"';
          out += ch;
        }
        out += '"';
      } else {
        out += cells[c];
      }
    }
    out += '\n';
  };
  emit_row(header_);
  for (const auto& r : rows_) emit_row(r);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  return os << t.str();
}

}  // namespace byz::util
