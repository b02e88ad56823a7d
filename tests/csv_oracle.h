// Reference CSV reader and writer, written the straightforward way: the
// reader walks the input one byte at a time into a fresh string per field
// and adds each record as a row of cells; the writer renders each cell
// through a temporary string. Tests compare the library's columnar parse and
// single-pass writer against these: same cells, same rendered bytes, same
// error status code.
#ifndef QPWM_TESTS_CSV_ORACLE_H_
#define QPWM_TESTS_CSV_ORACLE_H_

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "qpwm/relational/csv.h"
#include "qpwm/relational/table.h"
#include "qpwm/util/status.h"
#include "qpwm/util/str.h"

namespace qpwm::oracle {

// Splits one CSV record honoring quotes; advances `pos` past the record's
// trailing newline. Returns false at end of input, or with `error` set when
// the record breaks a column or field-length limit.
inline bool NextRecord(std::string_view csv, size_t& pos, std::vector<std::string>& fields,
                const CsvParseLimits& limits, Status& error) {
  fields.clear();
  if (pos >= csv.size()) return false;
  std::string field;
  bool in_quotes = false;
  bool any = false;
  // Checked per byte, so an oversized field is never copied out whole.
  auto field_too_long = [&] {
    if (limits.max_field_bytes == 0 || field.size() <= limits.max_field_bytes) return false;
    error = Status::ParseError(StrCat("field exceeds limit ", limits.max_field_bytes,
                                      " bytes at offset ", pos));
    return true;
  };
  while (pos < csv.size()) {
    if (field_too_long()) return false;
    char c = csv[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < csv.size() && csv[pos + 1] == '"') {
          field += '"';
          ++pos;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      ++pos;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      any = true;
      ++pos;
      continue;
    }
    if (c == ',') {
      if (limits.max_columns > 0 && fields.size() + 1 >= limits.max_columns) {
        error = Status::ParseError(StrCat("record exceeds limit ", limits.max_columns,
                                          " columns at offset ", pos));
        return false;
      }
      fields.push_back(std::move(field));
      field.clear();
      any = true;
      ++pos;
      continue;
    }
    if (c == '\n' || c == '\r') {
      while (pos < csv.size() && (csv[pos] == '\n' || csv[pos] == '\r')) ++pos;
      break;
    }
    field += c;
    any = true;
    ++pos;
  }
  if (field_too_long()) return false;
  if (in_quotes) {
    error = Status::ParseError("unterminated quoted field");
    return false;
  }
  if (!any && field.empty() && fields.empty()) return false;  // blank tail
  fields.push_back(std::move(field));
  return true;
}

inline std::string EscapeField(const std::string& s) {
  bool needs_quotes = s.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

[[nodiscard]] inline Result<Table> TableFromCsv(std::string name,
                                                std::vector<ColumnSpec> columns,
                                                std::string_view csv,
                                                const CsvParseLimits& limits = {}) {
  if (limits.max_bytes > 0 && csv.size() > limits.max_bytes) {
    return Status::ParseError(StrCat("CSV input of ", csv.size(),
                                     " bytes exceeds limit ", limits.max_bytes));
  }
  size_t pos = 0;
  std::vector<std::string> fields;
  Status error = Status::OK();

  if (!NextRecord(csv, pos, fields, limits, error)) {
    return error.ok() ? Status::ParseError("empty CSV") : error;
  }
  if (fields.size() != columns.size()) {
    return Status::ParseError(StrCat("header has ", fields.size(),
                                     " column(s), schema expects ", columns.size()));
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    if (fields[c] != columns[c].name) {
      return Status::ParseError("header column '" + fields[c] +
                                "' does not match schema column '" +
                                columns[c].name + "'");
    }
  }

  Table table(std::move(name), std::move(columns));
  size_t line = 1;
  while (NextRecord(csv, pos, fields, limits, error)) {
    ++line;
    if (limits.max_rows > 0 && table.num_rows() >= limits.max_rows) {
      return Status::ParseError(StrCat("CSV exceeds limit ", limits.max_rows,
                                       " rows at row ", line));
    }
    if (fields.size() != table.columns().size()) {
      return Status::ParseError(StrCat("row ", line, " has ", fields.size(),
                                       " field(s)"));
    }
    std::vector<Cell> row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      if (table.columns()[c].role == ColumnRole::kWeight) {
        Weight value = 0;
        const std::string& f = fields[c];
        auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), value);
        if (ec != std::errc() || ptr != f.data() + f.size()) {
          return Status::ParseError(StrCat("row ", line, ": weight '", f,
                                           "' is not an integer"));
        }
        row.emplace_back(value);
      } else {
        row.emplace_back(std::move(fields[c]));
      }
    }
    QPWM_RETURN_NOT_OK(table.AddRow(std::move(row)));
  }
  if (!error.ok()) return error;
  return table;
}

inline std::string TableToCsv(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.columns().size(); ++c) {
    if (c > 0) out += ',';
    out += EscapeField(table.columns()[c].name);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) out += ',';
      if (table.columns()[c].role == ColumnRole::kWeight) {
        out += StrCat(table.WeightAt(r, c));
      } else {
        out += EscapeField(table.KeyAt(r, c));
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace qpwm::oracle

#endif  // QPWM_TESTS_CSV_ORACLE_H_
