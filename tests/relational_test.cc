#include <gtest/gtest.h>

#include "qpwm/core/answers.h"
#include "qpwm/logic/query.h"
#include "qpwm/relational/table.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "load_oracle.h"

namespace qpwm {
namespace {

TEST(TableTest, SchemaAndRows) {
  Table t("T", {{"k", ColumnRole::kKey, ""}, {"w", ColumnRole::kWeight, "k"}});
  EXPECT_TRUE(t.AddRow({std::string("a"), Weight{5}}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.KeyAt(0, 0), "a");
  EXPECT_EQ(t.WeightAt(0, 1), 5);
  t.SetWeightAt(0, 1, 6);
  EXPECT_EQ(t.WeightAt(0, 1), 6);
}

TEST(TableTest, RowValidation) {
  Table t("T", {{"k", ColumnRole::kKey, ""}, {"w", ColumnRole::kWeight, "k"}});
  EXPECT_FALSE(t.AddRow({std::string("a")}).ok());                       // width
  EXPECT_FALSE(t.AddRow({std::string("a"), std::string("b")}).ok());     // kind
  EXPECT_FALSE(t.AddRow({Weight{1}, Weight{2}}).ok());                   // kind
}

TEST(TableTest, ColumnIndex) {
  Table t("T", {{"k", ColumnRole::kKey, ""}, {"w", ColumnRole::kWeight, "k"}});
  EXPECT_EQ(t.ColumnIndex("w").ValueOrDie(), 1u);
  EXPECT_FALSE(t.ColumnIndex("zz").ok());
  EXPECT_EQ(t.WeightColumns(), (std::vector<size_t>{1}));
}

TEST(DatabaseTest, FindTables) {
  Database db = TravelAgencyDatabase();
  EXPECT_TRUE(db.Find("Route").ok());
  EXPECT_TRUE(db.Find("Timetable").ok());
  EXPECT_FALSE(db.Find("Nope").ok());
}

TEST(TravelTest, Example1Contents) {
  Database db = TravelAgencyDatabase();
  const Table* route = db.Find("Route").ValueOrDie();
  EXPECT_EQ(route->num_rows(), 7u);
  const Table* timetable = db.Find("Timetable").ValueOrDie();
  EXPECT_EQ(timetable->num_rows(), 6u);
}

TEST(TravelTest, ToWeightedStructure) {
  Database db = TravelAgencyDatabase();
  auto instance = ToWeightedStructure(db).ValueOrDie();
  // Route arity 2, Timetable arity 4 (duration is a weight column).
  EXPECT_EQ(instance.structure.relation("Route").arity(), 2u);
  EXPECT_EQ(instance.structure.relation("Timetable").arity(), 4u);
  // Weights attach to transports: W(F21) = 10:35 = 635 minutes.
  ElemId f21 = instance.structure.FindElement("F21").ValueOrDie();
  EXPECT_EQ(instance.weights.GetElem(f21), 635);
  ElemId g13 = instance.structure.FindElement("G13").ValueOrDie();
  EXPECT_EQ(instance.weights.GetElem(g13), 600);
}

TEST(TravelTest, Example2QueryWeights) {
  // f(India discovery) = 16:55, f(Nepal Trek) = 20:20, f(TourNepal) = 6:20.
  Database db = TravelAgencyDatabase();
  auto instance = ToWeightedStructure(db).ValueOrDie();
  AtomQuery query("Route", {{true, 0}, {false, 0}}, 1, 1);
  QueryIndex index(instance.structure, query, AllParams(instance.structure, 1));

  auto f = [&](const std::string& travel) {
    ElemId e = instance.structure.FindElement(travel).ValueOrDie();
    size_t param = index.FindParam(Tuple{e}).ValueOrDie();
    return index.SumWeights(param, instance.weights);
  };
  EXPECT_EQ(f("India discovery"), 16 * 60 + 55);
  EXPECT_EQ(f("Nepal Trek"), 20 * 60 + 20);
  EXPECT_EQ(f("TourNepal"), 6 * 60 + 20);
}

TEST(TravelTest, ActiveElementsMatchPaper) {
  // Active weighted elements are {F21, G12, R5, F2, T33}; G13 is inactive.
  Database db = TravelAgencyDatabase();
  auto instance = ToWeightedStructure(db).ValueOrDie();
  AtomQuery query("Route", {{true, 0}, {false, 0}}, 1, 1);
  QueryIndex index(instance.structure, query, AllParams(instance.structure, 1));
  EXPECT_EQ(index.num_active(), 5u);
  ElemId g13 = instance.structure.FindElement("G13").ValueOrDie();
  EXPECT_FALSE(index.FindActive(Tuple{g13}).ok());
  ElemId f21 = instance.structure.FindElement("F21").ValueOrDie();
  EXPECT_TRUE(index.FindActive(Tuple{f21}).ok());
}

TEST(TravelTest, ApplyWeightsRoundTrip) {
  Database db = TravelAgencyDatabase();
  auto instance = ToWeightedStructure(db).ValueOrDie();
  WeightMap modified = instance.weights;
  ElemId f21 = instance.structure.FindElement("F21").ValueOrDie();
  modified.AddElem(f21, 10);
  Database out = ApplyWeightsToDatabase(db, instance, modified).ValueOrDie();
  auto reparsed = ToWeightedStructure(out).ValueOrDie();
  ElemId f21b = reparsed.structure.FindElement("F21").ValueOrDie();
  EXPECT_EQ(reparsed.weights.GetElem(f21b), 645);
}

TEST(TravelTest, ConflictingWeightsRejected) {
  Database db;
  Table t("T", {{"k", ColumnRole::kKey, ""}, {"w", ColumnRole::kWeight, "k"}});
  ASSERT_TRUE(t.AddRow({std::string("a"), Weight{1}}).ok());
  ASSERT_TRUE(t.AddRow({std::string("a"), Weight{2}}).ok());
  db.AddTable(std::move(t));
  EXPECT_FALSE(ToWeightedStructure(db).ok());
}

// A random multi-table database for the load oracle: every key column of
// every table draws from one shared pool (which holds the empty string), so
// keys recur across columns and tables; rows repeat, some tables are empty,
// and key columns without a weight column leave key-only elements. Weights
// are a function of the key unless `conflicts`, which now and then breaks
// that rule so the conflicting-weights error fires.
Database RandomLoadDatabase(Rng& rng, bool conflicts) {
  const size_t pool = 1 + rng.Below(40);
  auto key = [](size_t i) { return i == 0 ? std::string() : StrCat("k", i); };
  Database db;
  const size_t tables = 1 + rng.Below(4);
  for (size_t ti = 0; ti < tables; ++ti) {
    const size_t keys = 1 + rng.Below(3);
    const size_t weights = rng.Below(3);
    std::vector<ColumnSpec> columns;
    for (size_t c = 0; c < keys; ++c) {
      columns.push_back({StrCat("c", c), ColumnRole::kKey, ""});
    }
    for (size_t c = 0; c < weights; ++c) {
      const size_t at = rng.Below(columns.size() + 1);
      columns.insert(columns.begin() + static_cast<std::ptrdiff_t>(at),
                     {StrCat("w", c), ColumnRole::kWeight, StrCat("c", rng.Below(keys))});
    }
    Table t(StrCat("T", ti), columns);
    const size_t rows = rng.Below(4) == 0 ? 0 : rng.Below(60);
    std::vector<size_t> drawn(columns.size());
    for (size_t r = 0; r < rows; ++r) {
      if (r == 0 || rng.Below(4) != 0) {  // else repeat the previous row
        for (size_t& d : drawn) d = rng.Below(pool);
      }
      std::vector<Cell> row;
      for (size_t c = 0; c < columns.size(); ++c) {
        if (columns[c].role == ColumnRole::kKey) {
          row.emplace_back(key(drawn[c]));
          continue;
        }
        const size_t carrier = t.ColumnIndex(columns[c].weight_of).ValueOrDie();
        Weight w = 7 * static_cast<Weight>(drawn[carrier]) + 3;
        if (conflicts && rng.Below(80) == 0) ++w;
        row.emplace_back(w);
      }
      EXPECT_TRUE(t.AddRow(std::move(row)).ok());
    }
    db.AddTable(std::move(t));
  }
  return db;
}

void ExpectSameInstance(const Result<RelationalInstance>& got,
                        const Result<RelationalInstance>& want) {
  ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want.status() : got.status());
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  const Structure& g = got.value().structure;
  const Structure& w = want.value().structure;
  ASSERT_EQ(g.universe_size(), w.universe_size());
  for (ElemId e = 0; e < w.universe_size(); ++e) {
    EXPECT_EQ(g.ElementName(e), w.ElementName(e));
    EXPECT_EQ(g.FindElement(w.ElementName(e)).ValueOrDie(), e);
  }
  EXPECT_EQ(g.signature(), w.signature());
  ASSERT_EQ(g.num_relations(), w.num_relations());
  for (size_t r = 0; r < w.num_relations(); ++r) {
    ASSERT_EQ(g.relation(r).size(), w.relation(r).size());
    for (size_t i = 0; i < w.relation(r).size(); ++i) {
      EXPECT_EQ(g.relation(r).tuple(i), w.relation(r).tuple(i));
    }
  }
  EXPECT_EQ(got.value().has_weight, want.value().has_weight);
  EXPECT_EQ(got.value().weights, want.value().weights);
}

TEST(RelationalLoadTest, MatchesOracle) {
  Rng rng(14);
  size_t errors = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const Database db = RandomLoadDatabase(rng, trial % 3 == 0);
    const Result<RelationalInstance> want = oracle::ToWeightedStructure(db);
    const Result<RelationalInstance> got = ToWeightedStructure(db);
    ExpectSameInstance(got, want);
    if (!want.ok()) {
      ++errors;
      continue;
    }
    // The kept row -> element ids name each key cell's element.
    for (size_t ti = 0; ti < db.tables().size(); ++ti) {
      const Table& t = db.tables()[ti];
      for (size_t c = 0; c < t.columns().size(); ++c) {
        if (t.columns()[c].role != ColumnRole::kKey) continue;
        const std::vector<ElemId> ids = KeyColumnIds(db, got.value(), ti, c);
        ASSERT_EQ(ids.size(), t.num_rows());
        for (size_t r = 0; r < t.num_rows(); ++r) {
          EXPECT_EQ(ids[r], got.value().structure.FindElement(t.KeyAt(r, c)).ValueOrDie());
        }
      }
    }
  }
  EXPECT_GT(errors, 10u);  // the error path is exercised, not just the happy one
}

TEST(TravelTest, RandomDatabaseConverts) {
  Rng rng(9);
  Database db = RandomTravelDatabase(50, 80, 4, rng);
  auto instance = ToWeightedStructure(db).ValueOrDie();
  EXPECT_GT(instance.structure.universe_size(), 100u);
  AtomQuery query("Route", {{true, 0}, {false, 0}}, 1, 1);
  QueryIndex index(instance.structure, query, AllParams(instance.structure, 1));
  EXPECT_GT(index.num_active(), 0u);
}

}  // namespace
}  // namespace qpwm
