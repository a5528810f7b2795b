#include "util/csv.hpp"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace soda {
namespace {

TEST(SplitCsvLine, Basic) {
  const auto fields = SplitCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLine, EmptyFields) {
  const auto fields = SplitCsvLine(",x,");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[1], "x");
  EXPECT_EQ(fields[2], "");
}

TEST(SplitCsvLine, QuotedCommaAndEscapedQuote) {
  const auto fields = SplitCsvLine(R"("a,b","say ""hi""",plain)");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "say \"hi\"");
  EXPECT_EQ(fields[2], "plain");
}

TEST(SplitCsvLine, StripsCarriageReturn) {
  const auto fields = SplitCsvLine("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(ParseCsv, HeaderAndRows) {
  const CsvTable table = ParseCsv("time,mbps\n0,1.5\n1,2.5\n", true);
  ASSERT_EQ(table.header.size(), 2u);
  EXPECT_EQ(table.ColumnIndex("mbps"), 1);
  EXPECT_EQ(table.ColumnIndex("missing"), -1);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "2.5");
}

TEST(ParseCsv, SkipsCommentsAndBlanks) {
  const CsvTable table = ParseCsv("# comment\n\n1,2\n  \n3,4\n", false);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][0], "1");
}

TEST(ParseCsv, NoTrailingNewline) {
  const CsvTable table = ParseCsv("1,2\n3,4", false);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "4");
}

TEST(CsvWriter, RoundTrip) {
  CsvWriter writer;
  writer.AddRow({"a", "with,comma", "with\"quote"});
  const CsvTable parsed = ParseCsv(writer.Text(), false);
  ASSERT_EQ(parsed.rows.size(), 1u);
  EXPECT_EQ(parsed.rows[0][1], "with,comma");
  EXPECT_EQ(parsed.rows[0][2], "with\"quote");
}

TEST(CsvFile, WriteAndLoad) {
  const auto path = soda::testing::UniqueTempPath("table.csv");
  CsvWriter writer;
  writer.AddRow({"h1", "h2"});
  writer.AddRow({"1.5", "hello"});
  writer.WriteFile(path);
  const CsvTable table = LoadCsvFile(path, true);
  EXPECT_EQ(table.header[0], "h1");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "hello");
  std::filesystem::remove(path);
}

TEST(CsvFile, MissingFileThrows) {
  EXPECT_THROW(LoadCsvFile("/nonexistent/path/x.csv", false),
               std::runtime_error);
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25", "test"), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("  -1e3", "test"), -1000.0);
}

TEST(ParseDouble, InvalidThrows) {
  EXPECT_THROW((void)ParseDouble("abc", "ctx"), std::runtime_error);
  EXPECT_THROW((void)ParseDouble("", "ctx"), std::runtime_error);
}

}  // namespace
}  // namespace soda
