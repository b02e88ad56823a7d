// The columnar CSV reader and single-pass writer against the byte-at-a-time
// reference in csv_oracle.h, over seeded generated inputs: quoted fields with
// separators, doubled quotes and line breaks, CR/LF/CRLF line ends, blank
// lines, a missing final line break, empty and malformed fields, and every
// CsvParseLimits edge. Plus the load-time bound on the sum of |weight|.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "csv_oracle.h"
#include "qpwm/relational/csv.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"

namespace qpwm {
namespace {

// Key values, several of which need quoting on output.
const std::vector<std::string> kKeys = {
    "k1", "k2", "", "a,b", "q\"t", "two\nlines", "cr\rx", " sp ", "\"", "x,\"y\"\r\n",
    "abcdefghij"};

// One field spelled the ways a CSV writer might: bare (when nothing in it is
// special), wholly quoted, or quoted in part — "k""1" style runs the reader
// stitches back together.
std::string Spell(const std::string& value, Rng& rng) {
  const bool special = value.find_first_of(",\"\r\n") != std::string::npos;
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  switch (rng.Below(4)) {
    case 0:
      return quoted;
    case 1:  // an open quote mid-field: `ab"c"` reads as abc
      if (!value.empty()) {
        const size_t cut = rng.Below(value.size() + 1);
        std::string head = value.substr(0, cut);
        if (head.find_first_of(",\"\r\n") == std::string::npos) {
          std::string tail = "\"";
          for (char c : value.substr(cut)) {
            if (c == '"') tail += '"';
            tail += c;
          }
          return head + tail + "\"";
        }
      }
      return quoted;
    default:
      return special ? quoted : value;
  }
}

struct Generated {
  std::vector<ColumnSpec> columns;
  std::string csv;
  size_t rows = 0;        // data records written (malformed ones included)
  size_t width = 0;       // widest record
  size_t longest = 0;     // longest field after unquoting
};

Generated GenerateCsv(Rng& rng) {
  Generated g;
  const size_t keys = 1 + rng.Below(3);
  const size_t weights = rng.Below(3);
  for (size_t c = 0; c < keys; ++c) {
    g.columns.push_back({StrCat("k", c), ColumnRole::kKey, ""});
  }
  for (size_t c = 0; c < weights; ++c) {
    const size_t at = rng.Below(g.columns.size() + 1);
    g.columns.insert(g.columns.begin() + static_cast<std::ptrdiff_t>(at),
                     {StrCat("w", c), ColumnRole::kWeight, StrCat("k", rng.Below(keys))});
  }
  // Now and then a key column no weight refers to gets a name to quote.
  for (ColumnSpec& col : g.columns) {
    bool carries = false;
    for (const ColumnSpec& w : g.columns) carries |= w.weight_of == col.name;
    if (col.role == ColumnRole::kKey && !carries && rng.Below(4) == 0) {
      col.name.insert(1, ",\"");
    }
  }

  auto line_end = [&] {
    static const char* kEnds[] = {"\n", "\r\n", "\r", "\n\n", "\r\n\r\n"};
    return std::string(kEnds[rng.Below(5)]);
  };
  auto record = [&](std::vector<std::string> fields) {
    g.width = std::max(g.width, fields.size());
    std::string out;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ',';
      out += fields[i];
    }
    return out;
  };

  if (rng.Below(20) == 0) g.csv += "\n";  // a blank first line: an empty CSV
  std::vector<std::string> header;
  for (const ColumnSpec& col : g.columns) {
    g.longest = std::max(g.longest, col.name.size());
    header.push_back(Spell(col.name, rng));
  }
  if (rng.Below(25) == 0) header.back() = "renamed";
  if (rng.Below(25) == 0) header.push_back("extra");
  g.csv += record(header);

  g.rows = rng.Below(4) == 0 ? 0 : rng.Below(25);
  for (size_t r = 0; r < g.rows; ++r) {
    g.csv += line_end();
    std::vector<std::string> fields;
    for (const ColumnSpec& col : g.columns) {
      if (col.role == ColumnRole::kKey) {
        const std::string& v = kKeys[rng.Below(kKeys.size())];
        g.longest = std::max(g.longest, v.size());
        fields.push_back(Spell(v, rng));
        continue;
      }
      std::string w = StrCat(static_cast<int64_t>(rng.Below(2001)) - 1000);
      switch (rng.Below(40)) {
        case 0: w = "x"; break;
        case 1: w = ""; break;
        case 2: w = "+3"; break;
        case 3: w = "1.5"; break;
        case 4: w = "\"" + w + "\""; break;  // quoted digits are a number
        default: break;
      }
      g.longest = std::max(g.longest, w.size());
      fields.push_back(w);
    }
    if (rng.Below(30) == 0) fields.pop_back();
    if (rng.Below(30) == 0) fields.push_back("k1");
    if (fields.empty()) fields.push_back("k1");
    g.csv += record(fields);
  }
  switch (rng.Below(5)) {
    case 0: break;  // no final line break
    case 1: g.csv += "\r\n\r\n\n"; break;
    case 2: if (rng.Below(4) == 0) g.csv += ",\"unterminated"; break;
    default: g.csv += line_end(); break;
  }
  return g;
}

// Limits at, just under and off for each bound the generated input reaches.
CsvParseLimits EdgeLimits(const Generated& g, Rng& rng) {
  CsvParseLimits limits;
  auto edge = [&](size_t at) -> size_t {
    switch (rng.Below(4)) {
      case 0: return at;
      case 1: return at > 1 ? at - 1 : at;
      case 2: return 0;
      default: return at + 1;
    }
  };
  if (rng.Below(2) == 0) limits.max_bytes = edge(g.csv.size());
  if (rng.Below(2) == 0) limits.max_rows = edge(std::max<size_t>(g.rows, 1));
  if (rng.Below(2) == 0) limits.max_columns = edge(std::max<size_t>(g.width, 1));
  if (rng.Below(2) == 0) limits.max_field_bytes = edge(std::max<size_t>(g.longest, 1));
  return limits;
}

void ExpectSameTable(const Result<Table>& got, const Result<Table>& want) {
  ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want.status() : got.status());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  const Table& g = got.value();
  const Table& w = want.value();
  ASSERT_EQ(g.num_rows(), w.num_rows());
  ASSERT_EQ(g.columns().size(), w.columns().size());
  for (size_t r = 0; r < w.num_rows(); ++r) {
    for (size_t c = 0; c < w.columns().size(); ++c) {
      if (w.columns()[c].role == ColumnRole::kKey) {
        EXPECT_EQ(g.KeyAt(r, c), w.KeyAt(r, c)) << "row " << r << " column " << c;
      } else {
        EXPECT_EQ(g.WeightAt(r, c), w.WeightAt(r, c)) << "row " << r << " column " << c;
      }
    }
  }
  EXPECT_EQ(TableToCsv(g), oracle::TableToCsv(w));
}

TEST(CsvOracleTest, ReaderAndWriterMatchOracle) {
  Rng rng(16);
  size_t parsed = 0;
  size_t quoted_rows = 0;
  std::vector<std::string> errors;
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE(trial);
    const Generated g = GenerateCsv(rng);
    const CsvParseLimits limits = trial % 2 == 0 ? CsvParseLimits{} : EdgeLimits(g, rng);
    const Result<Table> want = oracle::TableFromCsv("T", g.columns, g.csv, limits);
    ExpectSameTable(TableFromCsv("T", g.columns, g.csv, limits), want);
    if (want.ok()) {
      ++parsed;
      if (g.csv.find('"') != std::string::npos && want.value().num_rows() > 0) ++quoted_rows;
    } else {
      const std::string& m = want.status().message();
      errors.push_back(m.substr(0, std::min(m.find_first_of("0123456789'"), m.size())));
    }
  }
  EXPECT_GT(parsed, 500u);
  EXPECT_GT(quoted_rows, 300u);
  // Every error the reader can raise shows up.
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
  for (const char* kind :
       {"CSV input of ", "CSV exceeds limit ", "record exceeds limit ", "field exceeds limit ",
        "unterminated quoted field", "empty CSV", "header has ", "header column ", "row "}) {
    EXPECT_TRUE(std::binary_search(errors.begin(), errors.end(), std::string(kind))) << kind;
  }
}

TEST(CsvOracleTest, WriterMatchesOracleOnEveryKeyAndWeight) {
  Rng rng(61);
  const std::vector<Weight> kWeights = {0, -1, 7, std::numeric_limits<Weight>::min(),
                                        std::numeric_limits<Weight>::max()};
  std::vector<ColumnSpec> columns = {{"k", ColumnRole::kKey, ""},
                                     {"w,\"x\"", ColumnRole::kWeight, "k"},
                                     {"k2", ColumnRole::kKey, ""}};
  Table t("T", columns);
  for (int r = 0; r < 400; ++r) {
    std::string key;
    for (size_t n = rng.Below(6); n > 0; --n) key += "ab,\"\r\n "[rng.Below(7)];
    ASSERT_TRUE(t.AddRow({key, kWeights[rng.Below(kWeights.size())],
                          kKeys[rng.Below(kKeys.size())]}).ok());
  }
  EXPECT_EQ(TableToCsv(t), oracle::TableToCsv(t));
}

// --- Sum of |weight| bound ----------------------------------------------------
// Past 2^61, a +-1 mark, an answer sum or a suspect - original difference
// could wrap int64, so the reader rejects such a table.

std::vector<ColumnSpec> LedgerColumns() {
  return {{"order", ColumnRole::kKey, ""},
          {"customer", ColumnRole::kKey, ""},
          {"revenue", ColumnRole::kWeight, "order"}};
}

TEST(CsvWeightBoundTest, SumAtBoundLoads) {
  // 2^60 + |-2^60| = 2^61 exactly.
  const std::string csv =
      "order,customer,revenue\no1,c1,1152921504606846976\no2,c1,-1152921504606846976\n";
  const Result<Table> t = TableFromCsv("Sales", LedgerColumns(), csv);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t.value().WeightAt(1, 2), -1152921504606846976);
}

TEST(CsvWeightBoundTest, SumOverBoundIsParseError) {
  for (const std::string& rows :
       {std::string("o1,c1,1152921504606846976\no2,c1,-1152921504606846976\no3,c2,1\n"),
        std::string("o4,c4,-9223372036854775808\n"),
        std::string("o1,c1,9223372036854775807\no2,c1,-9223372036854775807\n")}) {
    const Result<Table> t = TableFromCsv("Sales", LedgerColumns(), "order,customer,revenue\n" + rows);
    ASSERT_FALSE(t.ok()) << rows;
    EXPECT_EQ(t.status().code(), StatusCode::kParseError);
    EXPECT_NE(t.status().message().find("exceeds 2^61"), std::string::npos) << t.status();
  }
}

}  // namespace
}  // namespace qpwm
