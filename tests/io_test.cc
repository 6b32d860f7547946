// Unit tests for the table / CSV substrate.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "io/csv.h"
#include "io/table.h"
#include "test_temp_path.h"

namespace geoalign::io {
namespace {

TEST(Table, ColumnsAndRows) {
  Table t({"zip", "steam"});
  ASSERT_TRUE(t.AppendRow({"10001", "5946"}).ok());
  ASSERT_TRUE(t.AppendRow({"10003", "3519"}).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.NumColumns(), 2u);
  EXPECT_EQ(t.Cell(1, 0), "10003");
  EXPECT_FALSE(t.AppendRow({"only-one"}).ok());
}

TEST(Table, TypedAccessors) {
  Table t({"zip", "steam"});
  ASSERT_TRUE(t.AppendRow({"10001", "5946"}).ok());
  ASSERT_TRUE(t.AppendRow({"10003", "3519.5"}).ok());
  auto zips = std::move(t.StringColumn("zip")).ValueOrDie();
  EXPECT_EQ(zips, (std::vector<std::string>{"10001", "10003"}));
  auto vals = std::move(t.NumericColumn("steam")).ValueOrDie();
  EXPECT_DOUBLE_EQ(vals[1], 3519.5);
  EXPECT_FALSE(t.NumericColumn("zip").ok() &&
               false);  // zips happen to parse; check missing instead
  EXPECT_FALSE(t.NumericColumn("missing").ok());
  auto kv = std::move(t.KeyValueColumn("zip", "steam")).ValueOrDie();
  ASSERT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv[0].first, "10001");
  EXPECT_DOUBLE_EQ(kv[0].second, 5946.0);
}

TEST(Csv, ParsesSimple) {
  auto t = std::move(ParseCsv("a,b\n1,2\n3,4\n")).ValueOrDie();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.Cell(1, 1), "4");
}

TEST(Csv, HandlesQuotingAndEscapes) {
  auto t = std::move(ParseCsv(
      "name,desc\n\"Smith, John\",\"said \"\"hi\"\"\"\nplain,x\n")).ValueOrDie();
  EXPECT_EQ(t.Cell(0, 0), "Smith, John");
  EXPECT_EQ(t.Cell(0, 1), "said \"hi\"");
  EXPECT_EQ(t.Cell(1, 0), "plain");
}

TEST(Csv, HandlesCrLfAndTrailingNewlines) {
  auto t = std::move(ParseCsv("a,b\r\n1,2\r\n\r\n")).ValueOrDie();
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.Cell(0, 1), "2");
}

TEST(Csv, QuotedNewlineInsideField) {
  auto t = std::move(ParseCsv("a,b\n\"line1\nline2\",x\n")).ValueOrDie();
  EXPECT_EQ(t.Cell(0, 0), "line1\nline2");
}

TEST(Csv, RejectsMalformed) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("a,b\n\"unterminated\n").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());  // ragged row
  EXPECT_FALSE(ParseCsv("a,b\nx\"y,2\n").ok());  // quote mid-field
}

TEST(Csv, RoundTripWithQuoting) {
  Table t({"k", "v"});
  ASSERT_TRUE(t.AppendRow({"a,b", "plain"}).ok());
  ASSERT_TRUE(t.AppendRow({"with \"quote\"", "line\nbreak"}).ok());
  std::string text = ToCsv(t);
  auto back = std::move(ParseCsv(text)).ValueOrDie();
  EXPECT_EQ(back.NumRows(), 2u);
  EXPECT_EQ(back.Cell(0, 0), "a,b");
  EXPECT_EQ(back.Cell(1, 0), "with \"quote\"");
  EXPECT_EQ(back.Cell(1, 1), "line\nbreak");
}

TEST(Csv, FileRoundTrip) {
  Table t({"zip", "value"});
  ASSERT_TRUE(t.AppendRow({"10001", "1.5"}).ok());
  std::string path = TestTempPath(".csv");
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = std::move(ReadCsvFile(path)).ValueOrDie();
  EXPECT_EQ(back.NumRows(), 1u);
  EXPECT_EQ(back.Cell(0, 0), "10001");
  std::remove(path.c_str());
}

TEST(Csv, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCsvFile("/no/such/file.csv").ok());
}

}  // namespace
}  // namespace geoalign::io
