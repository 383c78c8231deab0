#ifndef SLIMFAST_UTIL_CSV_H_
#define SLIMFAST_UTIL_CSV_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace slimfast {

/// In-memory CSV table: a header row plus data rows of equal width.
///
/// Used by the dataset simulators to optionally persist generated fusion
/// instances (observations, ground truth, features) and by the benchmark
/// harness to emit machine-readable experiment output next to the printed
/// tables. RFC 4180 quoting is supported on both ends: Parse handles
/// quoted fields with embedded commas, quotes ("" escapes), and newlines,
/// plus CRLF line endings and trailing empty columns; ToString quotes
/// exactly the fields that need it. Unquoted fields keep the historical
/// lenient behavior (outer whitespace of a row is trimmed, blank lines are
/// skipped).
///
/// There is one parser: ForEachRow walks the rows of CSV text through a
/// callback, reusing one set of field buffers for every row, so a reader
/// that consumes rows as they come (LoadDataset) allocates nothing per
/// row. Parse and ReadFile are built on it and store the rows instead.
class CsvTable {
 public:
  /// Receives one data row; its fields are valid only during the call.
  using RowVisitor = std::function<Status(const std::vector<std::string>&)>;

  CsvTable() = default;

  /// Creates a table with the given column names.
  explicit CsvTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return header_.size(); }

  /// Appends a row; returns InvalidArgument if the width mismatches.
  Status AppendRow(std::vector<std::string> row);

  /// Returns the index of a named column, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Serializes header + rows to CSV text.
  std::string ToString() const;

  /// Writes the table to `path`.
  Status WriteFile(const std::string& path) const;

  /// Walks CSV text whose first row is the header: calls `visit` on each
  /// data row in order, after checking that its width matches the
  /// header's ("line N: row width ..." otherwise). Stops at and returns the
  /// first non-OK status, whether the parser's or the callback's. Empty
  /// input (no header row) is InvalidArgument. When `header` is non-null
  /// it receives the header row before the first data row is visited.
  static Status ForEachRow(std::string_view text, const RowVisitor& visit,
                           std::vector<std::string>* header = nullptr);

  /// Reads `path` and walks its data rows with ForEachRow.
  static Status ForEachRowInFile(const std::string& path,
                                 const RowVisitor& visit);

  /// Parses CSV text (first line is the header).
  static Result<CsvTable> Parse(const std::string& text);

  /// Reads and parses a CSV file.
  static Result<CsvTable> ReadFile(const std::string& path);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace slimfast

#endif  // SLIMFAST_UTIL_CSV_H_
