#include <gtest/gtest.h>

#include "qpwm/logic/evaluator.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"

namespace qpwm {
namespace {

class MsoPipelineTest : public ::testing::Test {
 protected:
  MsoPipelineTest() {
    sigma_.Intern("a");
    sigma_.Intern("b");
    sigma_.Intern("c");
  }

  // Cross-validates automaton acceptance against the naive evaluator for
  // every (u, v) assignment over a handful of random trees.
  void CrossValidate(const std::string& formula_text,
                     const std::vector<std::string>& vars, int trials = 5,
                     size_t max_nodes = 8) {
    FormulaPtr f = MustParseFormula(formula_text);
    auto compiled = CompileMso(*f, sigma_, vars);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const Dta& dta = compiled.value().dta;
    Rng rng(static_cast<uint64_t>(HashString(formula_text)));
    for (int trial = 0; trial < trials; ++trial) {
      BinaryTree t = RandomBinaryTree(1 + rng.Below(max_nodes), 3, rng);
      Structure g = TreeToStructure(t, sigma_);
      Evaluator ev(g);
      Environment env;
      std::vector<NodeId> pebbles(vars.size(), 0);
      // Enumerate all assignments of the pebble variables.
      size_t total = 1;
      for (size_t i = 0; i < vars.size(); ++i) total *= t.size();
      for (size_t code = 0; code < total; ++code) {
        size_t rest = code;
        for (size_t i = 0; i < vars.size(); ++i) {
          pebbles[i] = static_cast<NodeId>(rest % t.size());
          rest /= t.size();
          env.elems[vars[i]] = pebbles[i];
        }
        bool expect = ev.MustEval(*f, env);
        bool got = dta.Accepts(t, PebbledSymbols(t.labels(), 3, pebbles));
        ASSERT_EQ(expect, got)
            << formula_text << " tree size " << t.size() << " code " << code;
      }
    }
  }

  Alphabet sigma_;
};

TEST_F(MsoPipelineTest, Atoms) {
  CrossValidate("S1(u, v)", {"u", "v"});
  CrossValidate("S2(u, v)", {"u", "v"});
  CrossValidate("LEQ(u, v)", {"u", "v"});
  CrossValidate("CHILD(u, v)", {"u", "v"});
  CrossValidate("u = v", {"u", "v"});
  CrossValidate("P_b(u)", {"u"});
  CrossValidate("ROOT(u)", {"u"});
  CrossValidate("LEAF(u)", {"u"});
}

TEST_F(MsoPipelineTest, SelfApplications) {
  CrossValidate("LEQ(u, u)", {"u"});
  CrossValidate("S1(u, u)", {"u"});
  CrossValidate("CHILD(u, u)", {"u"});
}

TEST_F(MsoPipelineTest, BooleanConnectives) {
  CrossValidate("P_a(u) & P_b(v)", {"u", "v"});
  CrossValidate("P_a(u) | ~P_b(u)", {"u"});
  CrossValidate("~(LEQ(u, v) & ~(u = v))", {"u", "v"});
  CrossValidate("P_a(u) -> LEAF(u)", {"u"});
  CrossValidate("ROOT(u) <-> ~exists w (LEQ(w, u) & ~(w = u))", {"u"});
}

TEST_F(MsoPipelineTest, FirstOrderQuantifiers) {
  CrossValidate("exists w (S1(u, w) & S2(w, v))", {"u", "v"});
  CrossValidate("forall w (LEQ(u, w) -> (P_a(w) | ~LEAF(w)))", {"u"});
  CrossValidate("exists w exists w2 (S1(u, w) & S2(u, w2))", {"u"});
}

TEST_F(MsoPipelineTest, VacuousQuantifier) {
  CrossValidate("exists w P_a(u)", {"u"});
}

TEST_F(MsoPipelineTest, ShadowedVariable) {
  CrossValidate("exists w (S1(u, w) & exists w (S2(u, w) & P_a(w)))", {"u"});
}

TEST_F(MsoPipelineTest, SetQuantifiers) {
  // Connectivity-style: v is S1-reachable from u.
  CrossValidate(
      "forallset X ((u in X & forall w forall w2 ((w in X & S1(w, w2)) -> w2 in X)) "
      "-> v in X)",
      {"u", "v"}, 4, 6);
  CrossValidate("existsset X (u in X & ~(v in X))", {"u", "v"}, 4, 6);
}

TEST_F(MsoPipelineTest, ChildAtomMatchesClosureFormula) {
  // The hand-built CHILD atom against its set-quantifier definition.
  FormulaPtr closure = MustParseFormula(
      "exists z (S1(u, z) & forallset X ((z in X & forall w forall w2 ((w in X & "
      "S2(w, w2)) -> w2 in X)) -> v in X))");
  FormulaPtr atom = MustParseFormula("CHILD(u, v)");
  auto c1 = CompileMso(*closure, sigma_, {"u", "v"});
  auto c2 = CompileMso(*atom, sigma_, {"u", "v"});
  ASSERT_TRUE(c1.ok() && c2.ok());
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(10), 3, rng);
    for (NodeId u = 0; u < t.size(); ++u) {
      for (NodeId v = 0; v < t.size(); ++v) {
        auto symbols = PebbledSymbols(t.labels(), 3, {u, v});
        EXPECT_EQ(c1.value().dta.Accepts(t, symbols),
                  c2.value().dta.Accepts(t, symbols));
      }
    }
  }
}

TEST_F(MsoPipelineTest, TrackOrderRespected) {
  FormulaPtr f = MustParseFormula("S1(u, v)");
  auto uv = CompileMso(*f, sigma_, {"u", "v"}).ValueOrDie();
  auto vu = CompileMso(*f, sigma_, {"v", "u"}).ValueOrDie();
  Rng rng(12);
  BinaryTree t = RandomBinaryTree(8, 3, rng);
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      EXPECT_EQ(uv.dta.Accepts(t, PebbledSymbols(t.labels(), 3, {a, b})),
                vu.dta.Accepts(t, PebbledSymbols(t.labels(), 3, {b, a})));
    }
  }
}

TEST_F(MsoPipelineTest, ExtraFreeTrackIsIgnored) {
  FormulaPtr f = MustParseFormula("P_a(u)");
  auto wide = CompileMso(*f, sigma_, {"u", "v"}).ValueOrDie();
  Rng rng(13);
  BinaryTree t = RandomBinaryTree(7, 3, rng);
  for (NodeId u = 0; u < 7; ++u) {
    bool expect = t.label(u) == 0;
    for (NodeId v = 0; v < 7; ++v) {
      EXPECT_EQ(wide.dta.Accepts(t, PebbledSymbols(t.labels(), 3, {u, v})), expect);
    }
  }
}

TEST_F(MsoPipelineTest, ThreePebbleQuery) {
  // Three free first-order variables: w between u and v in tree order.
  CrossValidate("LEQ(u, w) & LEQ(w, v)", {"u", "w", "v"}, 4, 6);
}

TEST_F(MsoPipelineTest, ThreePebbleSiblingQuery) {
  CrossValidate("CHILD(u, w) & CHILD(u, v) & ~(w = v)", {"u", "w", "v"}, 4, 6);
}

TEST_F(MsoPipelineTest, NestedAlternation) {
  // forall-exists alternation through negation.
  CrossValidate("forall w (CHILD(u, w) -> exists w2 (LEQ(w, w2) & P_c(w2)))", {"u"},
                4, 7);
}

TEST_F(MsoPipelineTest, ErrorsOnUnknownRelation) {
  FormulaPtr f = MustParseFormula("Bogus(u, v)");
  EXPECT_FALSE(CompileMso(*f, sigma_, {"u", "v"}).ok());
}

TEST_F(MsoPipelineTest, ErrorsOnUnknownLabel) {
  FormulaPtr f = MustParseFormula("P_zzz(u)");
  EXPECT_FALSE(CompileMso(*f, sigma_, {"u"}).ok());
}

TEST_F(MsoPipelineTest, ErrorsOnMissingVarOrder) {
  FormulaPtr f = MustParseFormula("S1(u, v)");
  EXPECT_FALSE(CompileMso(*f, sigma_, {"u"}).ok());
}

TEST_F(MsoPipelineTest, ErrorsOnOversizedPebbledAlphabet) {
  // |Sigma| x 2^k is capped at kMaxAlphabetSize symbols: a 2-track atom over
  // 2^19 + 1 labels is an error, not an abort; 1 track still compiles.
  Alphabet big;
  for (uint32_t i = 0; i <= kMaxAlphabetSize / 4; ++i) big.Intern(StrCat("v", i));
  auto two_tracks = CompileMso(*MustParseFormula("S1(u, v)"), big, {"u", "v"});
  ASSERT_FALSE(two_tracks.ok());
  EXPECT_EQ(two_tracks.status().code(), StatusCode::kInvalidArgument);
  auto one_track = CompileMso(*MustParseFormula("P_v7(u)"), big, {"u"});
  ASSERT_TRUE(one_track.ok()) << one_track.status();
  EXPECT_EQ(one_track.value().dta.alphabet_size(), 2 * big.size());
  EXPECT_EQ(one_track.value().dta.num_classes(), 4u);
}

TEST_F(MsoPipelineTest, SetSymbolsComposesTracks) {
  BinaryTree t = ChainTree(3, 3);
  std::vector<std::vector<bool>> sets{{true, false, true}};
  auto symbols = SetSymbols(t.labels(), 3, sets);
  EXPECT_EQ(symbols[0], t.label(0) + 3u);
  EXPECT_EQ(symbols[1], t.label(1));
  EXPECT_EQ(symbols[2], t.label(2) + 3u);
}

// Sentence-level (no free variables) checks via set semantics.
TEST_F(MsoPipelineTest, SentenceEveryNodeLabeled) {
  FormulaPtr f = MustParseFormula("forall w (P_a(w) | P_b(w) | P_c(w))");
  auto compiled = CompileMso(*f, sigma_, {}).ValueOrDie();
  Rng rng(14);
  BinaryTree t = RandomBinaryTree(9, 3, rng);
  EXPECT_TRUE(compiled.dta.Accepts(t, t.labels()));
}

TEST_F(MsoPipelineTest, SentenceExistsLabel) {
  FormulaPtr f = MustParseFormula("exists w P_c(w)");
  auto compiled = CompileMso(*f, sigma_, {}).ValueOrDie();
  BinaryTree no_c = ChainTree(5, 2);  // labels 0, 1 only
  EXPECT_FALSE(compiled.dta.Accepts(no_c, no_c.labels()));
  BinaryTree with_c = ChainTree(5, 3);  // labels cycle 0,1,2
  EXPECT_TRUE(compiled.dta.Accepts(with_c, with_c.labels()));
}

}  // namespace
}  // namespace qpwm
