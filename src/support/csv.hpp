#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dlb::support {

/// Minimal CSV writer for exporting benchmark series (one file per figure so
/// plots can be regenerated outside the repo).  Handles quoting of cells that
/// contain separators, quotes, or newlines.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& cells);

 private:
  std::ostream& os_;
  // Each row is assembled here and inserted into the stream in one shot;
  // the capacity is reused across rows so steady-state writes don't allocate.
  std::string row_buf_;
};

}  // namespace dlb::support
