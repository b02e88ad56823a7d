#include <gtest/gtest.h>

#include "qpwm/relational/csv.h"
#include "qpwm/structure/generators.h"
#include "qpwm/structure/paths.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

// --- Shortest paths ---------------------------------------------------------

TEST(PathsTest, PathGraphDistances) {
  Structure s = PathGraph(5, true);
  GaifmanGraph g(s);
  WeightMap w(1, 5);
  for (ElemId e = 0; e < 5; ++e) w.SetElem(e, 10);
  auto dist = ShortestPathLengths(g, w, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 10);
  EXPECT_EQ(dist[4], 40);
}

TEST(PathsTest, PicksCheaperRoute) {
  // Square 0-1-2 and 0-3-2 where node 1 is expensive.
  Structure s(GraphSignature(), 4);
  for (auto [a, b] : {std::pair<ElemId, ElemId>{0, 1}, {1, 2}, {0, 3}, {3, 2}}) {
    s.AddTuple(size_t{0}, Tuple{a, b});
    s.AddTuple(size_t{0}, Tuple{b, a});
  }
  s.Seal();
  GaifmanGraph g(s);
  WeightMap w(1, 4);
  w.SetElem(1, 100);
  w.SetElem(3, 1);
  w.SetElem(2, 5);
  auto dist = ShortestPathLengths(g, w, 0);
  EXPECT_EQ(dist[2], 6);  // via 3
}

TEST(PathsTest, UnreachableMarked) {
  Structure s(GraphSignature(), 3);
  s.AddTuple(size_t{0}, Tuple{0, 1});
  s.Seal();
  GaifmanGraph g(s);
  WeightMap w(1, 3);
  auto dist = ShortestPathLengths(g, w, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(PathsTest, DriftBoundedByPerturbationTimesHops) {
  Rng rng(5);
  Structure s = RandomBoundedDegreeGraph(60, 3, 150, true, rng);
  GaifmanGraph g(s);
  WeightMap w = RandomWeights(s, 10, 50, rng);
  WeightMap w2 = w;
  // Perturb 5 elements by +-1.
  for (size_t i = 0; i < 5; ++i) {
    w2.AddElem(static_cast<ElemId>(rng.Below(60)), rng.Coin() ? 1 : -1);
  }
  Weight drift = MaxShortestPathDrift(g, w, w2);
  // A path visits each perturbed element at most once: drift <= 5.
  EXPECT_LE(drift, 5);
}

TEST(PathsTest, IdenticalWeightsZeroDrift) {
  Rng rng(6);
  Structure s = RandomBoundedDegreeGraph(40, 3, 100, true, rng);
  GaifmanGraph g(s);
  WeightMap w = RandomWeights(s, 1, 9, rng);
  EXPECT_EQ(MaxShortestPathDrift(g, w, w), 0);
}

// --- CSV ---------------------------------------------------------------------

std::vector<ColumnSpec> SalesColumns() {
  return {{"id", ColumnRole::kKey, ""}, {"amount", ColumnRole::kWeight, "id"}};
}

TEST(CsvTest, RoundTrip) {
  Table t("Sales", SalesColumns());
  ASSERT_TRUE(t.AddRow({std::string("a"), Weight{10}}).ok());
  ASSERT_TRUE(t.AddRow({std::string("b,c"), Weight{-3}}).ok());
  ASSERT_TRUE(t.AddRow({std::string("quo\"te"), Weight{7}}).ok());
  std::string csv = TableToCsv(t);
  Table back = TableFromCsv("Sales", SalesColumns(), csv).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 3u);
  EXPECT_EQ(back.KeyAt(1, 0), "b,c");
  EXPECT_EQ(back.KeyAt(2, 0), "quo\"te");
  EXPECT_EQ(back.WeightAt(1, 1), -3);
  EXPECT_EQ(TableToCsv(back), csv);
}

TEST(CsvTest, ParsesQuotedNewlines) {
  auto t = TableFromCsv("T", SalesColumns(), "id,amount\n\"two\nlines\",5\n")
               .ValueOrDie();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.KeyAt(0, 0), "two\nlines");
}

TEST(CsvTest, HeaderValidation) {
  EXPECT_FALSE(TableFromCsv("T", SalesColumns(), "id\n").ok());
  EXPECT_FALSE(TableFromCsv("T", SalesColumns(), "id,price\na,1\n").ok());
  EXPECT_FALSE(TableFromCsv("T", SalesColumns(), "").ok());
}

TEST(CsvTest, RowValidation) {
  EXPECT_FALSE(TableFromCsv("T", SalesColumns(), "id,amount\na\n").ok());
  EXPECT_FALSE(TableFromCsv("T", SalesColumns(), "id,amount\na,xyz\n").ok());
  EXPECT_FALSE(TableFromCsv("T", SalesColumns(), "id,amount\n\"a,1\n").ok());
}

TEST(CsvTest, CrLfAccepted) {
  auto t = TableFromCsv("T", SalesColumns(), "id,amount\r\na,1\r\nb,2\r\n")
               .ValueOrDie();
  EXPECT_EQ(t.num_rows(), 2u);
}

// --- CSV parse limits ---------------------------------------------------------
// Each limit admits input exactly at the limit and rejects one unit over it
// with a ParseError naming the limit.

void ExpectLimitError(const Result<Table>& t, const std::string& what) {
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kParseError);
  EXPECT_NE(t.status().message().find(what), std::string::npos) << t.status();
}

TEST(CsvLimitsTest, BytesLimit) {
  const std::string csv = "id,amount\na,1\n";  // 14 bytes
  CsvParseLimits limits;
  limits.max_bytes = csv.size();
  EXPECT_TRUE(TableFromCsv("T", SalesColumns(), csv, limits).ok());
  limits.max_bytes = csv.size() - 1;
  ExpectLimitError(TableFromCsv("T", SalesColumns(), csv, limits), "exceeds limit 13");
}

TEST(CsvLimitsTest, RowsLimit) {
  const std::string csv = "id,amount\na,1\nb,2\nc,3\n";
  CsvParseLimits limits;
  limits.max_rows = 3;
  EXPECT_EQ(TableFromCsv("T", SalesColumns(), csv, limits).ValueOrDie().num_rows(), 3u);
  limits.max_rows = 2;
  ExpectLimitError(TableFromCsv("T", SalesColumns(), csv, limits), "limit 2 rows");
}

TEST(CsvLimitsTest, ColumnsLimit) {
  CsvParseLimits limits;
  limits.max_columns = 2;
  EXPECT_TRUE(TableFromCsv("T", SalesColumns(), "id,amount\na,1\n", limits).ok());
  // A data row with more fields than the limit fails on the limit, not on
  // the schema width.
  ExpectLimitError(TableFromCsv("T", SalesColumns(), "id,amount\na,1,2\n", limits),
                   "limit 2 columns");
  ExpectLimitError(TableFromCsv("T", SalesColumns(), "id,amount,x\n", limits),
                   "limit 2 columns");
  // The default admits a wide header only up to 1024 fields.
  std::string wide = "id";
  for (int i = 0; i < 1024; ++i) wide += ",";
  ExpectLimitError(TableFromCsv("T", SalesColumns(), wide + "\n"), "limit 1024 columns");
}

TEST(CsvLimitsTest, FieldLengthLimit) {
  CsvParseLimits limits;
  limits.max_field_bytes = 6;  // the header's "amount" is exactly at the limit
  EXPECT_TRUE(TableFromCsv("T", SalesColumns(), "id,amount\nabcdef,1\n", limits).ok());
  ExpectLimitError(TableFromCsv("T", SalesColumns(), "id,amount\nabcdefg,1\n", limits),
                   "field exceeds limit 6");
  // Quoted fields count their unquoted length; the last field of the input
  // is checked too.
  EXPECT_TRUE(
      TableFromCsv("T", SalesColumns(), "id,amount\n\"a\"\"bcde\",1\n", limits).ok());
  ExpectLimitError(TableFromCsv("T", SalesColumns(), "id,amount\na,1234567", limits),
                   "field exceeds limit 6");
}

}  // namespace
}  // namespace qpwm
