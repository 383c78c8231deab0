#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/strings.h"

namespace slimfast {
namespace {

TEST(StringsTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a", ','), (std::vector<std::string>{"a"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-ws"), "no-ws");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("slimfast", "slim"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("slim", "slimfast"));
  EXPECT_FALSE(StartsWith("abc", "b"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(0.5, 0), "0");  // rounds half to even per printf
  EXPECT_EQ(FormatDouble(-1.005, 1), "-1.0");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(CsvTest, AppendValidatesWidth) {
  CsvTable table({"a", "b"});
  EXPECT_TRUE(table.AppendRow({"1", "2"}).ok());
  EXPECT_TRUE(table.AppendRow({"1"}).IsInvalidArgument());
  EXPECT_TRUE(table.AppendRow({"1", "2", "3"}).IsInvalidArgument());
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(CsvTest, ColumnIndex) {
  CsvTable table({"x", "y", "z"});
  EXPECT_EQ(table.ColumnIndex("y").ValueOrDie(), 1u);
  EXPECT_TRUE(table.ColumnIndex("missing").status().IsNotFound());
}

TEST(CsvTest, RoundTripThroughString) {
  CsvTable table({"object", "source", "value"});
  ASSERT_TRUE(table.AppendRow({"0", "1", "2"}).ok());
  ASSERT_TRUE(table.AppendRow({"3", "4", "5"}).ok());
  auto parsed = CsvTable::Parse(table.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header(), table.header());
  EXPECT_EQ(parsed->rows(), table.rows());
}

TEST(CsvTest, ParseRejectsEmptyAndRagged) {
  EXPECT_TRUE(CsvTable::Parse("").status().IsInvalidArgument());
  EXPECT_TRUE(CsvTable::Parse("a,b\n1\n").status().IsInvalidArgument());
}

TEST(CsvTest, ParseSkipsBlankLines) {
  auto parsed = CsvTable::Parse("a,b\n1,2\n\n3,4\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 2u);
}

TEST(CsvTest, QuotedFieldsWithEmbeddedCommas) {
  auto parsed = CsvTable::Parse("name,desc\n\"a,b\",plain\nx,\"1,2,3\"\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->rows()[0][0], "a,b");
  EXPECT_EQ(parsed->rows()[0][1], "plain");
  EXPECT_EQ(parsed->rows()[1][1], "1,2,3");
}

TEST(CsvTest, QuotedFieldsWithEmbeddedNewlinesAndEscapedQuotes) {
  auto parsed =
      CsvTable::Parse("k,v\n\"line1\nline2\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 1u);
  EXPECT_EQ(parsed->rows()[0][0], "line1\nline2");
  EXPECT_EQ(parsed->rows()[0][1], "say \"hi\"");
}

TEST(CsvTest, QuotedFieldPreservesWhitespaceAndUnterminatedFails) {
  auto parsed = CsvTable::Parse("k,v\n\" padded \",x\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows()[0][0], " padded ");
  EXPECT_TRUE(
      CsvTable::Parse("k,v\n\"open,x\n").status().IsInvalidArgument());
}

TEST(CsvTest, CrlfLineEndings) {
  auto parsed = CsvTable::Parse("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->rows()[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(parsed->rows()[1], (std::vector<std::string>{"3", "4"}));
  // CRLF inside a quoted field is data, not a row break.
  auto quoted = CsvTable::Parse("k\r\n\"a\r\nb\"\r\n");
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(quoted->rows()[0][0], "a\r\nb");
}

TEST(CsvTest, TrailingEmptyColumnsSurvive) {
  auto parsed = CsvTable::Parse("a,b,c\n1,2,\n,,\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->rows()[0], (std::vector<std::string>{"1", "2", ""}));
  EXPECT_EQ(parsed->rows()[1], (std::vector<std::string>{"", "", ""}));
  // Missing (not empty-quoted) trailing column is still ragged.
  EXPECT_TRUE(CsvTable::Parse("a,b,c\n1,2\n").status().IsInvalidArgument());
}

TEST(CsvTest, MissingFinalNewlineAndEmptyVariants) {
  auto parsed = CsvTable::Parse("a,b\n1,2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows()[0], (std::vector<std::string>{"1", "2"}));
  // Whitespace-only and newline-only inputs have no header row.
  EXPECT_TRUE(CsvTable::Parse("\n\n").status().IsInvalidArgument());
  EXPECT_TRUE(CsvTable::Parse("   \n").status().IsInvalidArgument());
}

TEST(CsvTest, QuotedEmptySingleColumnRowIsDataNotBlankLine) {
  auto parsed = CsvTable::Parse("a\n\"\"\nx\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->rows()[0], (std::vector<std::string>{""}));
  EXPECT_EQ(parsed->rows()[1], (std::vector<std::string>{"x"}));
}

TEST(CsvTest, EdgeWhitespaceSurvivesRoundTrip) {
  CsvTable table({"k", "v"});
  ASSERT_TRUE(table.AppendRow({" x ", "tab\t"}).ok());
  auto parsed = CsvTable::Parse(table.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows(), table.rows());
}

TEST(CsvTest, WriterQuotesExactlyWhatNeedsIt) {
  CsvTable table({"k", "v"});
  ASSERT_TRUE(table.AppendRow({"a,b", "plain"}).ok());
  ASSERT_TRUE(table.AppendRow({"say \"hi\"", "line1\nline2"}).ok());
  EXPECT_EQ(table.ToString(),
            "k,v\n\"a,b\",plain\n\"say \"\"hi\"\"\",\"line1\nline2\"\n");
  auto parsed = CsvTable::Parse(table.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header(), table.header());
  EXPECT_EQ(parsed->rows(), table.rows());
}

TEST(CsvTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "slimfast_csv_test.csv")
          .string();
  CsvTable table({"k", "v"});
  ASSERT_TRUE(table.AppendRow({"alpha", "1"}).ok());
  ASSERT_TRUE(table.WriteFile(path).ok());
  auto loaded = CsvTable::ReadFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows()[0][0], "alpha");
  std::remove(path.c_str());
}

/// Rows that reuse a longer field's buffer for a shorter or empty one.
constexpr char kReusedBuffers[] =
    "k,v\nlong value here,another long one\nx,\"\"\n  y ,z  \n";

/// Every CsvTest input above, plus inputs whose rows reuse a longer
/// field's buffer for a shorter or quoted one.
const std::vector<std::string>& CsvInputs() {
  static const std::vector<std::string> inputs = {
      "object,source,value\n0,1,2\n3,4,5\n",
      "",
      "a,b\n1\n",
      "a,b\n1,2\n\n3,4\n",
      "name,desc\n\"a,b\",plain\nx,\"1,2,3\"\n",
      "k,v\n\"line1\nline2\",\"say \"\"hi\"\"\"\n",
      "k,v\n\" padded \",x\n",
      "k,v\n\"open,x\n",
      "a,b\r\n1,2\r\n3,4\r\n",
      "k\r\n\"a\r\nb\"\r\n",
      "a,b,c\n1,2,\n,,\n",
      "a,b,c\n1,2\n",
      "a,b\n1,2",
      "\n\n",
      "   \n",
      "a\n\"\"\nx\n",
      "k,v\n\" x \",tab\t\n",
      "k,v\n\"a,b\",plain\n\"say \"\"hi\"\"\",\"line1\nline2\"\n",
      "k,v\nalpha,1\n",
      kReusedBuffers,
      "k,v\n\"q\"tail,\"\"\n,\n",
  };
  return inputs;
}

using Rows = std::vector<std::vector<std::string>>;

/// Walks `text` with ForEachRow, appending every data row to `rows`.
Status Walk(const std::string& text, Rows* rows,
            std::vector<std::string>* header = nullptr) {
  return CsvTable::ForEachRow(
      text,
      [rows](const std::vector<std::string>& row) {
        rows->push_back(row);
        return Status::OK();
      },
      header);
}

TEST(CsvTest, ForEachRowYieldsTheRowsParseStores) {
  for (const std::string& text : CsvInputs()) {
    SCOPED_TRACE(text);
    std::vector<std::string> header;
    Rows rows;
    Status walked = Walk(text, &rows, &header);
    auto parsed = CsvTable::Parse(text);
    ASSERT_EQ(walked.ToString(), parsed.status().ToString());
    if (!parsed.ok()) continue;
    EXPECT_EQ(header, parsed->header());
    EXPECT_EQ(rows, parsed->rows());
  }
  // The walk reuses its field buffers; no row may see another's bytes.
  Rows rows;
  ASSERT_TRUE(Walk(kReusedBuffers, &rows).ok());
  EXPECT_EQ(rows, (Rows{{"long value here", "another long one"},
                        {"x", ""},
                        {"y ", "z"}}));
}

TEST(CsvTest, ForEachRowReportsTheLineOfARaggedRow) {
  Rows rows;
  Status st = Walk("a,b\n1,2\n\n3\n4,5\n", &rows);
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 4: row width 1 does not match header width 2");
  EXPECT_EQ(rows, (Rows{{"1", "2"}}));
}

TEST(CsvTest, ForEachRowStopsAtTheCallbacksFirstError) {
  std::vector<std::string> seen;
  auto stop_at_b = [&seen](const std::vector<std::string>& row) {
    seen.push_back(row[0]);
    return row[0] == "b" ? Status::NotFound("stop at b") : Status::OK();
  };
  Status st = CsvTable::ForEachRow("k\na\nb\nc\n", stop_at_b);
  EXPECT_TRUE(st.IsNotFound()) << st;
  EXPECT_EQ(st.message(), "stop at b");
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
}

TEST(CsvTest, ForEachRowRejectsEmptyInput) {
  for (const char* text : {"", "\n\n", "  \r\n"}) {
    Rows rows;
    Status st = Walk(text, &rows);
    EXPECT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_EQ(st.message(), "empty CSV input");
    EXPECT_TRUE(rows.empty());
  }
  // A header with no data rows is a valid, empty walk.
  Rows rows;
  std::vector<std::string> header;
  EXPECT_TRUE(Walk("a,b\n", &rows, &header).ok());
  EXPECT_EQ(header, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(rows.empty());
}

TEST(CsvTest, ReadMissingFileIsIOError) {
  EXPECT_TRUE(CsvTable::ReadFile("/nonexistent/dir/file.csv")
                  .status()
                  .IsIOError());
  auto ignore = [](const std::vector<std::string>&) { return Status::OK(); };
  EXPECT_TRUE(CsvTable::ForEachRowInFile("/nonexistent/dir/file.csv", ignore)
                  .IsIOError());
}

}  // namespace
}  // namespace slimfast
