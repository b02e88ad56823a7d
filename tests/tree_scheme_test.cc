#include <gtest/gtest.h>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "tree_oracle.h"

namespace qpwm {
namespace {

class TreeSchemeTest : public ::testing::Test {
 protected:
  TreeSchemeTest() {
    sigma_.Intern("a");
    sigma_.Intern("b");
    sigma_.Intern("c");
    query_ = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma_, {"u", "v"})
                 .ValueOrDie()
                 .dta;
  }

  TreeSchemeOptions Options() {
    TreeSchemeOptions o;
    o.key = {0xAB, 0xCD};
    return o;
  }

  WeightMap RandomTreeWeights(const BinaryTree& t, Rng& rng) {
    WeightMap w(1, t.size());
    for (NodeId v = 0; v < t.size(); ++v) w.SetElem(v, rng.Uniform(100, 999));
    return w;
  }

  Weight MaxQueryDrift(const BinaryTree& t, const Dta& dta, const WeightMap& w0,
                       const WeightMap& w1) {
    Weight worst = 0;
    for (NodeId a = 0; a < t.size(); ++a) {
      Weight f0 = 0, f1 = 0;
      for (NodeId b : EvaluateWa(t, t.labels(), 3, dta, 1, a)) {
        f0 += w0.GetElem(b);
        f1 += w1.GetElem(b);
      }
      worst = std::max(worst, std::abs(f1 - f0));
    }
    return worst;
  }

  Alphabet sigma_;
  Dta query_{0, 1};
};

TEST_F(TreeSchemeTest, RoundTripManyMarksSmallTree) {
  Rng rng(51);
  BinaryTree t = RandomBinaryTree(120, 3, rng);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
  const size_t bits = scheme.CapacityBits();
  ASSERT_GT(bits, 0u);
  // All marks when feasible, otherwise a 64-mark random sample.
  const uint64_t total = bits <= 6 ? (uint64_t{1} << bits) : 64;
  for (uint64_t trial = 0; trial < total; ++trial) {
    BitVec mark(bits);
    if (bits <= 6) {
      mark = BitVec::FromUint64(trial, bits);
    } else {
      for (size_t i = 0; i < bits; ++i) mark.Set(i, rng.Coin());
    }
    WeightMap marked = scheme.Embed(w, mark);
    EXPECT_LE(w.LocalDistortion(marked), 1);
    EXPECT_LE(MaxQueryDrift(t, query_, w, marked), scheme.DistortionBound());
    HonestTreeServer server(t, t.labels(), 3, query_, 1, marked);
    EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
  }
}

class TreeSchemeSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TreeSchemeSizeTest, DistortionAtMostOneAndDetectable) {
  const size_t n = GetParam();
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(n);
  BinaryTree t = RandomBinaryTree(n, 3, rng);
  WeightMap w(1, n);
  for (NodeId v = 0; v < n; ++v) w.SetElem(v, rng.Uniform(0, 500));

  TreeSchemeOptions opts;
  opts.key = {n, n + 1};
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);

  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  WeightMap marked = scheme.Embed(w, mark);

  // Theorem 5's structural guarantee: max drift over every parameter <= 1.
  Weight worst = 0;
  for (NodeId a = 0; a < n; ++a) {
    Weight f0 = 0, f1 = 0;
    for (NodeId b : EvaluateWa(t, t.labels(), 3, query, 1, a)) {
      f0 += w.GetElem(b);
      f1 += marked.GetElem(b);
    }
    worst = std::max(worst, std::abs(f1 - f0));
  }
  EXPECT_LE(worst, 1);

  HonestTreeServer server(t, t.labels(), 3, query, 1, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeSchemeSizeTest,
                         ::testing::Values(200, 500, 1200));

TEST_F(TreeSchemeTest, CapacityScalesWithTreeSize) {
  Rng rng(52);
  size_t last = 0;
  for (size_t n : {300, 900, 2700}) {
    BinaryTree t = RandomBinaryTree(n, 3, rng);
    auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
    EXPECT_GT(scheme.CapacityBits(), last);
    last = scheme.CapacityBits();
  }
}

TEST_F(TreeSchemeTest, ParamFreeQueryScheme) {
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("P_b(v) & ~LEAF(v)"), sigma, {"v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(53);
  BinaryTree t = RandomBinaryTree(400, 3, rng);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query, 0, Options()).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  mark.Set(0, true);
  WeightMap marked = scheme.Embed(w, mark);
  // The single (empty-parameter) query drifts by at most 1 in total... per
  // region pair it cancels exactly since both pair nodes are in W together.
  Weight f0 = 0, f1 = 0;
  for (NodeId b : EvaluateWa(t, t.labels(), 3, query, 0, 0)) {
    f0 += w.GetElem(b);
    f1 += marked.GetElem(b);
  }
  EXPECT_EQ(f0, f1);  // pairs inside W cancel on the one query
  HonestTreeServer server(t, t.labels(), 3, query, 0, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

TEST_F(TreeSchemeTest, WrongTrackCountRejected) {
  Rng rng(54);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  // query_ is a 2-track automaton; claiming param_arity 0 mismatches.
  EXPECT_FALSE(TreeScheme::Plan(t, t.labels(), 3, query_, 0, Options()).ok());
}

TEST_F(TreeSchemeTest, DetectorSeesTamperedStructure) {
  Rng rng(55);
  BinaryTree t = RandomBinaryTree(300, 3, rng);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
  if (scheme.CapacityBits() == 0) GTEST_SKIP();
  // A server answering a *different* tree's results: witness elements go
  // missing and detection reports failure rather than a wrong mark.
  BinaryTree other = RandomBinaryTree(10, 3, rng);
  HonestTreeServer bogus(other, other.labels(), 3, query_, 1,
                         WeightMap(1, other.size()));
  auto result = scheme.Detect(w, bogus);
  EXPECT_FALSE(result.ok());
}

// With a one-parameter pool (the root), most regions miss the pool, so the
// planner runs the reverse automaton and reuses what it learns. The pairs
// and every witness must be those of the planner that ran a full reverse
// scan per miss, and both nodes of each pair must be in the witness's
// answer set. Shuffled ids and the descendant query make a learned witness
// often not the smallest one covering a later straggler.
TEST_F(TreeSchemeTest, PoolMissesKeepTheFullScanWitnesses) {
  const char* queries[] = {
      "LEQ(u, v) & P_b(v)",
      "LEQ(u, v) & P_b(v) & P_a(u)",
      "LEQ(u, v) & P_b(v) & exists w (CHILD(v, w) & P_a(w))",
      "LEQ(v, u) & P_b(v)",
  };
  Rng rng(57);
  WitnessSearchStats total;
  for (const char* text : queries) {
    Dta dta = CompileMso(*MustParseFormula(text), sigma_, {"u", "v"}).ValueOrDie().dta;
    for (size_t trial = 0; trial < 6; ++trial) {
      BinaryTree t = RandomBinaryTree(200 + rng.Below(1200), 3, rng);
      if (trial % 2 == 1) t = oracle::ShuffledIds(t, rng);
      TreeSchemeOptions opts = Options();
      opts.key = {trial + 1, rng.Next()};
      opts.witness_attempts = 1;
      auto scheme = TreeScheme::Plan(t, t.labels(), 3, dta, 1, opts).ValueOrDie();
      const auto pairs = oracle::SchemePairs(scheme);
      EXPECT_EQ(pairs, oracle::PlanPairs(t, t.labels(), 3, dta, 1, opts))
          << text << " trial " << trial;
      for (const auto& [plus, minus, witness] : pairs) {
        EXPECT_TRUE(MemberWa(t, t.labels(), 3, dta, 1, witness, plus));
        EXPECT_TRUE(MemberWa(t, t.labels(), 3, dta, 1, witness, minus));
      }
      const WitnessSearchStats& s = scheme.witness_stats();
      EXPECT_LE(s.pool_hits + s.learned_hits + s.fallbacks, scheme.RegionsPaired());
      total.pool_hits += s.pool_hits;
      total.learned_hits += s.learned_hits;
      total.fallbacks += s.fallbacks;
    }
  }
  // Every kind of witness search ran.
  EXPECT_GT(total.pool_hits, 0u);
  EXPECT_GT(total.learned_hits, 0u);
  EXPECT_GT(total.fallbacks, 0u);
}

TEST_F(TreeSchemeTest, ChainTreesWork) {
  BinaryTree t = ChainTree(600, 3);
  Rng rng(56);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); i += 2) mark.Set(i, true);
  WeightMap marked = scheme.Embed(w, mark);
  HonestTreeServer server(t, t.labels(), 3, query_, 1, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

}  // namespace
}  // namespace qpwm
