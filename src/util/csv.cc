#include "util/csv.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

namespace slimfast {

Status CsvTable::AppendRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) +
        " does not match header width " + std::to_string(header_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<size_t> CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

namespace {

/// True if `field` must be quoted to survive a round trip: embedded
/// delimiters/quotes/newlines, or edge whitespace the parser would trim
/// from an unquoted first/last field.
bool NeedsQuoting(const std::string& field) {
  if (field.find_first_of(",\"\n\r") != std::string::npos) return true;
  return !field.empty() &&
         (std::isspace(static_cast<unsigned char>(field.front())) ||
          std::isspace(static_cast<unsigned char>(field.back())));
}

/// RFC 4180 field encoding: quote when needed, escape `"` as `""`.
void AppendField(const std::string& field, std::string* out) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendRowText(const std::vector<std::string>& row, std::string* out) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendField(row[i], out);
  }
  out->push_back('\n');
}

}  // namespace

std::string CsvTable::ToString() const {
  std::string out;
  AppendRowText(header_, &out);
  for (const auto& row : rows_) {
    AppendRowText(row, &out);
  }
  return out;
}

Status CsvTable::WriteFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  file << ToString();
  if (!file) {
    return Status::IOError("write to '" + path + "' failed");
  }
  return Status::OK();
}

namespace {

/// True for the characters that end a run of plain field text.
bool IsCsvSpecial(char c) {
  return c == '"' || c == ',' || c == '\n' || c == '\r';
}

/// Character-level CSV record reader (RFC 4180 plus the historical lenient
/// rules): `"`-quoted fields may embed commas, newlines, and `""`-escaped
/// quotes; rows end at LF or CRLF; whitespace-only rows are skipped; the
/// outer whitespace of a row (leading on the first unquoted field,
/// trailing on the last) is trimmed, preserving interior and quoted
/// whitespace exactly. Trailing empty columns survive ("a,b," has three
/// fields). Calls `on_record(fields, line_no)` for each record, with the
/// 1-based line it started on, and stops at the first non-OK status. The
/// field strings are reused from record to record, so their buffers are
/// allocated once per column rather than once per field.
template <typename OnRecord>
Status ParseRecords(std::string_view text, OnRecord&& on_record) {
  // fields[0, num_fields) hold the finished fields of the current record
  // and fields[num_fields] is the one being built, so a record of the
  // previous record's width reuses every buffer and the vector handed to
  // `on_record` needs no resize.
  std::vector<std::string> fields;
  size_t num_fields = 0;
  std::string* field = nullptr;
  // Whether the field being built was quoted (quoted fields are exempt
  // from edge trimming and cannot be blank-line filler).
  bool field_quoted = false;
  bool first_field_quoted = false;
  bool last_field_quoted = false;
  bool row_has_content = false;
  size_t line_no = 1;
  size_t row_start_line = 1;

  auto begin_field = [&]() {
    if (num_fields == fields.size()) fields.emplace_back();
    field = &fields[num_fields];
    field->clear();
    field_quoted = false;
  };
  auto end_field = [&]() {
    if (num_fields == 0) first_field_quoted = field_quoted;
    last_field_quoted = field_quoted;
    ++num_fields;
  };
  auto end_row = [&]() -> Status {
    Status st = Status::OK();
    if (row_has_content) {
      end_field();
      if (fields.size() != num_fields) fields.resize(num_fields);
      // Historical lenient trimming: the row's outer whitespace belongs to
      // the line, not the data. Quoted fields keep every character.
      if (!first_field_quoted) {
        std::string& first = fields.front();
        size_t begin = 0;
        while (begin < first.size() &&
               std::isspace(static_cast<unsigned char>(first[begin]))) {
          ++begin;
        }
        if (begin > 0) first.erase(0, begin);
      }
      if (!last_field_quoted) {
        std::string& last = fields.back();
        size_t end = last.size();
        while (end > 0 &&
               std::isspace(static_cast<unsigned char>(last[end - 1]))) {
          --end;
        }
        if (end < last.size()) last.resize(end);
      }
      // A row that collapses to one empty unquoted field is a blank line;
      // an explicitly quoted empty field ("") is data.
      if (fields.size() != 1 || !fields.front().empty() ||
          first_field_quoted) {
        st = on_record(fields, row_start_line);
      }
    }
    num_fields = 0;
    begin_field();
    first_field_quoted = false;
    last_field_quoted = false;
    row_has_content = false;
    row_start_line = line_no;
    return st;
  };

  begin_field();
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (c == '"' && field->empty() && !field_quoted) {
      // Opening quote: consume through the matching close, unescaping "".
      field_quoted = true;
      row_has_content = true;
      ++i;
      bool closed = false;
      while (i < n) {
        size_t run = i;
        while (run < n && text[run] != '"' && text[run] != '\n') ++run;
        field->append(text.data() + i, run - i);
        i = run;
        if (i == n) break;
        if (text[i] == '\n') {
          ++line_no;
          field->push_back('\n');
          ++i;
          continue;
        }
        if (i + 1 < n && text[i + 1] == '"') {
          field->push_back('"');
          i += 2;
          continue;
        }
        ++i;
        closed = true;
        break;
      }
      if (!closed) {
        return Status::InvalidArgument(
            "line " + std::to_string(row_start_line) +
            ": unterminated quoted field");
      }
      continue;
    }
    if (c == ',') {
      end_field();
      begin_field();
      row_has_content = true;  // "a," and even "," have two fields
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;  // CRLF
      ++i;
      ++line_no;
      SLIMFAST_RETURN_NOT_OK(end_row());
      continue;
    }
    // A run of plain characters (a `"` here is literal: the field already
    // has content or was quoted) is copied in one append.
    size_t run = i + 1;
    while (run < n && !IsCsvSpecial(text[run])) ++run;
    field->append(text.data() + i, run - i);
    row_has_content = true;
    i = run;
  }
  return end_row();  // final record without trailing newline
}

Result<std::string> ReadText(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return std::move(buffer).str();
}

}  // namespace

Status CsvTable::ForEachRow(std::string_view text, const RowVisitor& visit,
                            std::vector<std::string>* header) {
  bool have_header = false;
  size_t width = 0;
  SLIMFAST_RETURN_NOT_OK(ParseRecords(
      text,
      [&](const std::vector<std::string>& fields, size_t line_no) -> Status {
        if (!have_header) {
          have_header = true;
          width = fields.size();
          if (header != nullptr) *header = fields;
          return Status::OK();
        }
        if (fields.size() != width) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ": row width " +
              std::to_string(fields.size()) +
              " does not match header width " + std::to_string(width));
        }
        return visit(fields);
      }));
  if (!have_header) {
    return Status::InvalidArgument("empty CSV input");
  }
  return Status::OK();
}

Status CsvTable::ForEachRowInFile(const std::string& path,
                                  const RowVisitor& visit) {
  SLIMFAST_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return ForEachRow(text, visit);
}

Result<CsvTable> CsvTable::Parse(const std::string& text) {
  CsvTable table;
  SLIMFAST_RETURN_NOT_OK(ForEachRow(
      text,
      [&table](const std::vector<std::string>& row) {
        table.rows_.push_back(row);
        return Status::OK();
      },
      &table.header_));
  return table;
}

Result<CsvTable> CsvTable::ReadFile(const std::string& path) {
  SLIMFAST_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return Parse(text);
}

}  // namespace slimfast
