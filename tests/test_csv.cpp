// Tests for util/csv: parsing, strict numeric conversion, writer round-trip.
#include "util/csv.hpp"

#include <gtest/gtest.h>

namespace bml {
namespace {

TEST(SplitCsvLine, TrimsAndSplits) {
  const auto cells = split_csv_line(" a , b,c ,, d ");
  ASSERT_EQ(cells.size(), 5u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[1], "b");
  EXPECT_EQ(cells[2], "c");
  EXPECT_EQ(cells[3], "");
  EXPECT_EQ(cells[4], "d");
}

TEST(ParseCsv, HeaderAndRows) {
  const CsvTable t = parse_csv("x,y\n1,2\n3,4\n", true);
  ASSERT_EQ(t.header.size(), 2u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.column("y"), 1u);
  EXPECT_EQ(t.rows[1][0], "3");
}

TEST(ParseCsv, SkipsCommentsAndBlankLines) {
  const CsvTable t = parse_csv("# comment\n\nx\n# another\n5\n", true);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][0], "5");
}

TEST(ParseCsv, NoHeaderMode) {
  const CsvTable t = parse_csv("1,2\n3,4\n", false);
  EXPECT_TRUE(t.header.empty());
  ASSERT_EQ(t.rows.size(), 2u);
}

TEST(CsvTable, MissingColumnThrows) {
  const CsvTable t = parse_csv("x\n1\n", true);
  EXPECT_THROW((void)t.column("nope"), std::out_of_range);
}

TEST(ParseDouble, AcceptsNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW((void)parse_double("abc"), std::runtime_error);
  EXPECT_THROW((void)parse_double("1.5x"), std::runtime_error);
  EXPECT_THROW((void)parse_double(""), std::runtime_error);
  EXPECT_THROW((void)parse_double("nan"), std::runtime_error);
  EXPECT_THROW((void)parse_double("inf"), std::runtime_error);
}

TEST(ParseInt, Strict) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW((void)parse_int("4.2"), std::runtime_error);
  EXPECT_THROW((void)parse_int(""), std::runtime_error);
}

TEST(CsvWriter, RoundTripsThroughParser) {
  CsvWriter w;
  w.set_header({"name", "value"});
  w.add_row(std::vector<std::string>{"alpha", "1"});
  w.add_row(std::vector<double>{2.5, 3.5});
  const CsvTable t = parse_csv(w.to_string(), true);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0], "alpha");
  EXPECT_DOUBLE_EQ(parse_double(t.rows[1][1]), 3.5);
}

TEST(CsvWriter, QuotesCellsWithCommasQuotesAndLineBreaks) {
  // RFC 4180: such a cell is quoted and its inner quotes doubled; numbers
  // and plain names are written as they are.
  CsvWriter w;
  w.set_header({"scenario", "value"});
  w.add_row(std::vector<std::string>{"grid[a=1,b=2]", "1"});
  w.add_row(std::vector<std::string>{"say \"hi\"", "2"});
  w.add_row(std::vector<std::string>{"two\nlines", "3"});
  w.add_row(std::vector<double>{2.5, 3.5});
  EXPECT_EQ(w.to_string(),
            "scenario,value\n"
            "\"grid[a=1,b=2]\",1\n"
            "\"say \"\"hi\"\"\",2\n"
            "\"two\nlines\",3\n"
            "2.5,3.5\n");
}

TEST(CsvWriter, FileRoundTrip) {
  CsvWriter w;
  w.set_header({"rate"});
  w.add_row(std::vector<double>{123.456789});
  const auto path = std::filesystem::temp_directory_path() / "bml_csv_test.csv";
  w.write_file(path);
  const CsvTable t = read_csv_file(path, true);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_NEAR(parse_double(t.rows[0][0]), 123.456789, 1e-9);
  std::filesystem::remove(path);
}

TEST(ReadCsvFile, MissingFileThrows) {
  EXPECT_THROW((void)read_csv_file("/nonexistent/bml.csv", true),
               std::runtime_error);
}

}  // namespace
}  // namespace bml
