#include "support/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace {

using dlb::support::CsvWriter;

/// One cell as CsvWriter writes it (without the row's newline).
std::string csv_escape(const std::string& cell) {
  std::ostringstream os;
  CsvWriter(os).write_row({cell});
  std::string row = os.str();
  row.pop_back();
  return row;
}

TEST(CsvEscape, PlainCellsUntouched) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesCellsWithSeparators) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b", "c"});
  w.write_row({"1", "2,3", "4"});
  EXPECT_EQ(os.str(), "a,b,c\n1,\"2,3\",4\n");
}

TEST(CsvWriter, EmptyRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({});
  EXPECT_EQ(os.str(), "\n");
}

}  // namespace
