#include <gtest/gtest.h>

#include <algorithm>

#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "tree_oracle.h"

namespace qpwm {
namespace {

// A random automaton: each (left, right, symbol) transition exists with
// probability 3/4 and goes to a uniform state; accepting flags are coins.
Dta RandomDta(uint32_t states, uint32_t alphabet, Rng& rng) {
  Dta dta(states, alphabet);
  auto children = [&](auto&& fn) {
    fn(kAbsentChild);
    for (State q = 0; q < states; ++q) fn(q);
  };
  children([&](State l) {
    children([&](State r) {
      for (uint32_t sym = 0; sym < alphabet; ++sym) {
        if (rng.Below(4) != 0) {
          dta.AddTransition(l, r, sym, static_cast<State>(rng.Below(states)));
        }
      }
    });
  });
  for (State q = 0; q <= states; ++q) dta.SetAccepting(q, rng.Coin());
  return dta;
}

class TreeQueryTest : public ::testing::Test {
 protected:
  TreeQueryTest() {
    sigma_.Intern("a");
    sigma_.Intern("b");
    sigma_.Intern("c");
  }

  Dta CompileQuery(const std::string& text, std::vector<std::string> vars) {
    FormulaPtr f = MustParseFormula(text);
    return CompileMso(*f, sigma_, vars).ValueOrDie().dta;
  }

  Alphabet sigma_;
};

TEST_F(TreeQueryTest, EvaluateWaMatchesMemberWa) {
  Dta dta = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    BinaryTree t = RandomBinaryTree(2 + rng.Below(40), 3, rng);
    for (NodeId a = 0; a < t.size(); ++a) {
      auto wa = EvaluateWa(t, t.labels(), 3, dta, 1, a);
      for (NodeId b = 0; b < t.size(); ++b) {
        bool in = std::binary_search(wa.begin(), wa.end(), b);
        EXPECT_EQ(in, MemberWa(t, t.labels(), 3, dta, 1, a, b))
            << "a=" << a << " b=" << b;
      }
    }
  }
}

// The memoized evaluator against the dense context DP: random trees (some
// with shuffled ids), random automata with 1..12 and 70 states (context
// rows of one and two words), parameter arity 0 and 1, the forward and the
// track-swapped automaton, whole answer sets and answer prefixes.
TEST_F(TreeQueryTest, WaEvaluatorMatchesDenseOracle) {
  Rng rng(31);
  size_t members = 0;
  size_t nonempty = 0;
  for (int trial = 0; trial < 36; ++trial) {
    const uint32_t arity = trial % 2;
    const uint32_t states = trial % 3 == 0 ? 70 : 1 + static_cast<uint32_t>(rng.Below(12));
    std::vector<Dta> automata;
    automata.push_back(RandomDta(states, 3u << (arity + 1), rng));
    if (arity == 1) {
      automata.push_back(SwapPebbleTracks(automata[0], 3));
      automata.push_back(CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"}));
      automata.push_back(SwapPebbleTracks(automata.back(), 3));
    }
    BinaryTree t = RandomBinaryTree(1 + rng.Below(60), 3, rng);
    if (trial % 4 == 3) t = oracle::ShuffledIds(t, rng);
    for (const Dta& dta : automata) {
      WaEvaluator eval(t, t.labels(), 3, dta, arity);
      const NodeId params = arity == 1 ? static_cast<NodeId>(t.size()) : 1;
      for (NodeId a = 0; a < params; ++a) {
        const std::vector<NodeId> expect = oracle::DenseEvaluateWa(t, t.labels(), 3, dta, arity, a);
        ASSERT_EQ(eval.Evaluate(a), expect) << "trial " << trial << " a=" << a;
        const auto limit = static_cast<NodeId>(rng.Below(t.size() + 2));
        std::vector<NodeId> below;
        for (NodeId b : expect) {
          if (b < limit) below.push_back(b);
        }
        ASSERT_EQ(eval.EvaluateBelow(a, limit), below)
            << "trial " << trial << " a=" << a << " limit=" << limit;
        members += expect.size();
        nonempty += expect.empty() ? 0 : 1;
      }
      EXPECT_EQ(EvaluateWa(t, t.labels(), 3, dta, arity, 0),
                oracle::DenseEvaluateWa(t, t.labels(), 3, dta, arity, 0));
    }
  }
  // The automata select something: the comparison is not over empty sets.
  EXPECT_GT(nonempty, 100u);
  EXPECT_GT(members, 1000u);
}

TEST_F(TreeQueryTest, EvaluateWaSemantics) {
  Dta dta = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  BinaryTree t = CompleteTree(7, 3);  // labels 0,1,2,0,1,2,0
  // W_root = b-labeled descendants of the root = nodes labeled 'b' (1).
  auto w = EvaluateWa(t, t.labels(), 3, dta, 1, t.root());
  std::vector<NodeId> expect;
  for (NodeId v = 0; v < 7; ++v) {
    if (t.label(v) == 1) expect.push_back(v);
  }
  EXPECT_EQ(w, expect);
}

TEST_F(TreeQueryTest, ParamArityZero) {
  Dta dta = CompileQuery("P_c(v) & LEAF(v)", {"v"});
  Rng rng(22);
  BinaryTree t = RandomBinaryTree(25, 3, rng);
  auto w = EvaluateWa(t, t.labels(), 3, dta, 0, 0);
  for (NodeId v = 0; v < t.size(); ++v) {
    bool expect = t.label(v) == 2 && t.IsLeaf(v);
    EXPECT_EQ(std::binary_search(w.begin(), w.end(), v), expect);
  }
}

TEST_F(TreeQueryTest, ResultPebbleOnParamNode) {
  // v = u is allowed: both pebbles on the same node.
  Dta dta = CompileQuery("LEQ(u, v)", {"u", "v"});
  BinaryTree t = ChainTree(5, 3);
  for (NodeId a = 0; a < 5; ++a) {
    auto w = EvaluateWa(t, t.labels(), 3, dta, 1, a);
    EXPECT_TRUE(std::binary_search(w.begin(), w.end(), a));
  }
}

TEST_F(TreeQueryTest, ProjectParamTrackGivesActiveSet) {
  Dta dta = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Dta exists_a = ProjectParamTrack(dta, 3);
  Rng rng(23);
  BinaryTree t = RandomBinaryTree(30, 3, rng);
  auto active = EvaluateWa(t, t.labels(), 3, exists_a, 0, 0);
  // Manual union of W_a.
  std::vector<bool> expect(t.size(), false);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b : EvaluateWa(t, t.labels(), 3, dta, 1, a)) expect[b] = true;
  }
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ(std::binary_search(active.begin(), active.end(), v), expect[v]) << v;
  }
}

TEST_F(TreeQueryTest, SwapPebbleTracksInvertsRoles) {
  Dta dta = CompileQuery("S1(u, v)", {"u", "v"});
  Dta swapped = SwapPebbleTracks(dta, 3);
  Rng rng(24);
  BinaryTree t = RandomBinaryTree(20, 3, rng);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b = 0; b < t.size(); ++b) {
      EXPECT_EQ(MemberWa(t, t.labels(), 3, dta, 1, a, b),
                MemberWa(t, t.labels(), 3, swapped, 1, b, a));
    }
  }
}

TEST_F(TreeQueryTest, SkeletonStructureShape) {
  BinaryTree t = CompleteTree(7, 2);
  Structure s = TreeSkeletonStructure(t);
  EXPECT_EQ(s.universe_size(), 7u);
  EXPECT_EQ(s.relation("S1").size(), 3u);
  EXPECT_EQ(s.relation("S2").size(), 3u);
}

TEST_F(TreeQueryTest, MakeTreeQueryBridgesToParametricQuery) {
  Dta dta = CompileQuery("LEQ(u, v)", {"u", "v"});
  BinaryTree t = ChainTree(6, 3);
  auto labels = t.labels();
  auto query = MakeTreeQuery(t, labels, 3, dta, 1);
  Structure skeleton = TreeSkeletonStructure(t);
  EXPECT_EQ(query->ParamArity(), 1u);
  EXPECT_EQ(query->ResultArity(), 1u);
  // Descendants of node 2 on a left chain: {2, 3, 4, 5}.
  auto w = query->Evaluate(skeleton, Tuple{2});
  EXPECT_EQ(w.size(), 4u);
}

}  // namespace
}  // namespace qpwm
