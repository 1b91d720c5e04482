#include "support/csv.hpp"

#include <ostream>

namespace dlb::support {

namespace {

// Appends `cell` to `out`, quoting only when required: a cell holding a
// separator, quote or newline is wrapped in quotes with embedded quotes
// doubled (RFC 4180).
void append_escaped(std::string& out, const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) {
    out += cell;
    return;
  }
  out.push_back('"');
  for (char ch : cell) {
    if (ch == '"') out.push_back('"');
    out.push_back(ch);
  }
  out.push_back('"');
}

}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  row_buf_.clear();
  std::size_t upper = cells.size() + 1;  // separators + newline
  for (const auto& cell : cells) upper += cell.size();
  row_buf_.reserve(upper);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) row_buf_.push_back(',');
    append_escaped(row_buf_, cells[i]);
  }
  row_buf_.push_back('\n');
  os_ << row_buf_;
}

}  // namespace dlb::support
