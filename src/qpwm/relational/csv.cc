#include "qpwm/relational/csv.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <deque>

#include "qpwm/util/str.h"
#include "qpwm/util/thread_annotations.h"

namespace qpwm {
namespace {

// Bytes that end an unquoted field, open a quoted run, or force quoting on
// output.
constexpr std::array<bool, 256> kSpecial = [] {
  std::array<bool, 256> special{};
  special[','] = special['"'] = special['\n'] = special['\r'] = true;
  return special;
}();

bool IsSpecial(char c) { return kSpecial[static_cast<unsigned char>(c)]; }
bool IsNewline(char c) { return c == '\n' || c == '\r'; }

// Splits CSV text into records without copying it: a field is a view into
// the input, or, when quotes must be removed from its middle (a doubled
// quote, or a quote that does not enclose the whole field), into a scratch
// string per field position. Dialect: a quote outside quotes opens a quoted
// run anywhere in a field, `""` inside one is a literal quote, and a run of
// CR/LF outside quotes ends the record (so blank lines are skipped).
class RecordReader {
 public:
  RecordReader(std::string_view csv, const CsvParseLimits& limits)
      : csv_(csv), limits_(limits) {}

  // The next record's fields, valid until the next call. False at the end of
  // the input, or with error() set when the record has an unterminated
  // quote or breaks a column or field-length limit.
  bool Next(std::vector<std::string_view>& fields) {
    fields.clear();
    // An empty record ends the input. Records consume the line breaks after
    // them, so this only happens at offset 0.
    if (pos_ >= csv_.size() || IsNewline(csv_[pos_])) return false;
    while (true) {
      std::string_view field;
      if (!ReadField(fields.size(), field)) return false;
      if (pos_ < csv_.size() && csv_[pos_] == ',') {
        if (limits_.max_columns > 0 && fields.size() + 1 >= limits_.max_columns) {
          error_ = Status::ParseError(StrCat("record exceeds limit ", limits_.max_columns,
                                             " columns at offset ", pos_));
          return false;
        }
        fields.push_back(field);
        ++pos_;
        continue;
      }
      fields.push_back(field);
      while (pos_ < csv_.size() && IsNewline(csv_[pos_])) ++pos_;
      return true;
    }
  }

  const Status& error() const { return error_; }

 private:
  // Reads the field at pos_ (the `index`-th of its record) and leaves pos_ at
  // the delimiter after it or at the end of the input.
  bool ReadField(size_t index, std::string_view& field) {
    const size_t start = pos_;
    const size_t size = csv_.size();
    size_t p = start;
    while (p < size && !IsSpecial(csv_[p])) ++p;
    if (p == size || csv_[p] != '"') {  // unquoted
      pos_ = p;
      if (TooLong(p - start, start + limits_.max_field_bytes + 1)) return false;
      field = csv_.substr(start, p - start);
      return true;
    }
    if (p == start) {  // quoted whole: a view when the closing quote ends it
      const void* q = std::memchr(csv_.data() + start + 1, '"', size - start - 1);
      const size_t close =
          q == nullptr ? size : static_cast<size_t>(static_cast<const char*>(q) - csv_.data());
      if (close < size && (close + 1 == size || (IsSpecial(csv_[close + 1]) &&
                                                  csv_[close + 1] != '"'))) {
        pos_ = close + 1;
        if (TooLong(close - start - 1, start + limits_.max_field_bytes + 2)) return false;
        field = csv_.substr(start + 1, close - start - 1);
        return true;
      }
    }
    if (unquoted_.size() <= index) unquoted_.resize(index + 1);
    if (!Unquote(unquoted_[index])) return false;
    field = unquoted_[index];
    return true;
  }

  // Reads the field at pos_ byte by byte, removing its quotes into `out`.
  bool Unquote(std::string& out) {
    out.clear();
    bool in_quotes = false;
    while (pos_ < csv_.size()) {
      if (TooLong(out.size(), pos_)) return false;
      const char c = csv_[pos_];
      if (in_quotes) {
        if (c != '"') {
          out += c;
        } else if (pos_ + 1 < csv_.size() && csv_[pos_ + 1] == '"') {
          out += '"';
          ++pos_;
        } else {
          in_quotes = false;
        }
        ++pos_;
        continue;
      }
      if (c == ',' || IsNewline(c)) break;
      if (c == '"') {
        in_quotes = true;
      } else {
        out += c;
      }
      ++pos_;
    }
    if (TooLong(out.size(), pos_)) return false;
    if (in_quotes) {
      error_ = Status::ParseError("unterminated quoted field");
      return false;
    }
    return true;
  }

  // A field of `length` bytes breaks the field-length limit; `offset` is
  // where reading its bytes one at a time would have noticed.
  bool TooLong(size_t length, size_t offset) {
    if (limits_.max_field_bytes == 0 || length <= limits_.max_field_bytes) return false;
    error_ = Status::ParseError(StrCat("field exceeds limit ", limits_.max_field_bytes,
                                       " bytes at offset ", offset));
    return true;
  }

  std::string_view csv_ QPWM_VIEW_OF(caller_text);
  const CsvParseLimits& limits_;
  size_t pos_ = 0;
  Status error_ = Status::OK();
  // A deque, so that growing it never moves (and, for short strings,
  // invalidates the views of) the fields already unquoted in this record.
  std::deque<std::string> unquoted_;
};

// Appends `s` as one CSV field, quoted only when it holds a special byte.
void AppendField(std::string& out, std::string_view s) {
  if (std::none_of(s.begin(), s.end(), IsSpecial)) {
    out += s;
    return;
  }
  out += '"';
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

Result<Table> TableFromCsv(std::string name, std::vector<ColumnSpec> columns,
                           std::string_view csv, const CsvParseLimits& limits) {
  if (limits.max_bytes > 0 && csv.size() > limits.max_bytes) {
    return Status::ParseError(StrCat("CSV input of ", csv.size(),
                                     " bytes exceeds limit ", limits.max_bytes));
  }
  RecordReader reader(csv, limits);
  std::vector<std::string_view> fields;
  if (!reader.Next(fields)) {
    return reader.error().ok() ? Status::ParseError("empty CSV") : reader.error();
  }
  if (fields.size() != columns.size()) {
    return Status::ParseError(StrCat("header has ", fields.size(),
                                     " column(s), schema expects ", columns.size()));
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    if (fields[c] != columns[c].name) {
      return Status::ParseError("header column '" + std::string(fields[c]) +
                                "' does not match schema column '" +
                                columns[c].name + "'");
    }
  }

  const size_t width = columns.size();
  std::vector<Table::Column> cells(width);
  // At most one row per line break, and a row takes at least one byte per
  // field (its separators and line break), so blank lines cannot inflate the
  // reservation past what a table of the same size would hold.
  size_t expected_rows = std::min(static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n')),
                                  csv.size() / width);
  if (limits.max_rows > 0) expected_rows = std::min(expected_rows, limits.max_rows);
  for (size_t c = 0; c < width; ++c) {
    if (columns[c].role == ColumnRole::kKey) {
      cells[c].keys.reserve(expected_rows);
    } else {
      cells[c].weights.reserve(expected_rows);
    }
  }
  uint64_t total_weight = 0;
  size_t rows = 0;
  while (reader.Next(fields)) {
    const size_t line = rows + 2;
    if (limits.max_rows > 0 && rows >= limits.max_rows) {
      return Status::ParseError(StrCat("CSV exceeds limit ", limits.max_rows,
                                       " rows at row ", line));
    }
    if (fields.size() != width) {
      return Status::ParseError(StrCat("row ", line, " has ", fields.size(),
                                       " field(s)"));
    }
    for (size_t c = 0; c < width; ++c) {
      const std::string_view f = fields[c];
      if (columns[c].role == ColumnRole::kKey) {
        cells[c].keys.emplace_back(f);
        continue;
      }
      Weight value = 0;
      auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), value);
      if (ec != std::errc() || ptr != f.data() + f.size()) {
        return Status::ParseError(StrCat("row ", line, ": weight '", f,
                                         "' is not an integer"));
      }
      if (!AddToTotalWeight(total_weight, value)) {
        return Status::ParseError(StrCat("row ", line, ": sum of |weight| exceeds 2^61"));
      }
      cells[c].weights.push_back(value);
    }
    ++rows;
  }
  if (!reader.error().ok()) return reader.error();
  return Table(std::move(name), std::move(columns), std::move(cells));
}

std::string TableToCsv(const Table& table) {
  const std::vector<ColumnSpec>& columns = table.columns();
  const size_t rows = table.num_rows();
  // Room for every field unquoted, a weight's sign and up to 19 digits, and
  // one separator or line break per field.
  size_t bytes = 0;
  for (size_t c = 0; c < columns.size(); ++c) {
    bytes += columns[c].name.size() + 1;
    if (columns[c].role == ColumnRole::kWeight) {
      bytes += rows * 21;
      continue;
    }
    for (size_t r = 0; r < rows; ++r) bytes += table.KeyAt(r, c).size() + 1;
  }
  std::string out;
  out.reserve(bytes);
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    AppendField(out, columns[c].name);
  }
  out += '\n';
  char digits[24];
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += ',';
      if (columns[c].role == ColumnRole::kWeight) {
        const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), table.WeightAt(r, c));
        out.append(digits, end);
      } else {
        AppendField(out, table.KeyAt(r, c));
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace qpwm
