// Pins the exact automata the MSO / XPath compiler produces: state count and
// a digest over the full Step table (every (left, right, symbol), children
// ranging over kAbsentChild, every real state and the sink) plus every
// accepting flag, the sink's included. The values were recorded with the
// per-symbol automata that preceded symbol classes. Any change to the
// compilation pipeline must leave them bit-identical: state numbering is
// observable (tree-scheme plans iterate states in id order).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

namespace qpwm {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t StepTableDigest(const Dta& d) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = Mix(h, d.num_states());
  h = Mix(h, d.alphabet_size());
  for (State q = 0; q <= d.num_states(); ++q) h = Mix(h, d.IsAccepting(q) ? 1 : 0);
  std::vector<State> children{kAbsentChild};
  for (State q = 0; q <= d.num_states(); ++q) children.push_back(q);
  for (State l : children) {
    for (State r : children) {
      for (uint32_t sym = 0; sym < d.alphabet_size(); ++sym) h = Mix(h, d.Step(l, r, sym));
    }
  }
  return h;
}

struct Pinned {
  std::string name;
  uint32_t states;
  uint64_t digest;
};

// On a mismatch, prints the entry as it would be pinned.
void ExpectPinned(const Pinned& want, const Dta& got) {
  const uint64_t digest = StepTableDigest(got);
  EXPECT_TRUE(got.num_states() == want.states && digest == want.digest)
      << "got {\"" << want.name << "\", " << got.num_states() << ", 0x" << std::hex
      << digest << "ull}";
}

Alphabet Abc() {
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  return sigma;
}

Dta CompileFormula(const std::string& text, const std::vector<std::string>& vars) {
  return CompileMso(*MustParseFormula(text), Abc(), vars).ValueOrDie().dta;
}

Dta CompileXPath(const XmlDocument& doc, const std::string& xpath) {
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  return XPathQuery::Parse(xpath).ValueOrDie().Compile(enc).ValueOrDie().dta;
}

// The formulas mso_test cross-validates, with their track orders.
TEST(AutomatonDigestTest, MsoFormulas) {
  struct Case {
    Pinned pin;
    std::string formula;
    std::vector<std::string> vars;
  };
  const std::vector<Case> cases = {
      {{"S1", 3, 0x9261fcce00380aabull}, "S1(u, v)", {"u", "v"}},
      {{"S2", 3, 0xa74cf61bbe3a85ebull}, "S2(u, v)", {"u", "v"}},
      {{"LEQ", 3, 0x4cbb8ceedb3c76bull}, "LEQ(u, v)", {"u", "v"}},
      {{"CHILD", 3, 0xd7b0f2dfdcebbaabull}, "CHILD(u, v)", {"u", "v"}},
      {{"EQ", 2, 0xf165d2f85a4945e9ull}, "u = v", {"u", "v"}},
      {{"P_b", 2, 0x9e15fdd0d8f02d60ull}, "P_b(u)", {"u"}},
      {{"ROOT", 3, 0x345bbaa64c7bd61ull}, "ROOT(u)", {"u"}},
      {{"LEAF", 2, 0x8d7267fa8abcee0ull}, "LEAF(u)", {"u"}},
      {{"LEQ(u,u)", 1, 0x66add8b6c83f4103ull}, "LEQ(u, u)", {"u"}},
      {{"S1(u,u)", 1, 0xe6e74c0d1f6b1ae3ull}, "S1(u, u)", {"u"}},
      {{"and", 4, 0x4e94bfe790231e2bull}, "P_a(u) & P_b(v)", {"u", "v"}},
      {{"or-not", 2, 0xd2583d01fa14ea1ull}, "P_a(u) | ~P_b(u)", {"u"}},
      {{"not-and", 3, 0xc11ced362dbd05ebull}, "~(LEQ(u, v) & ~(u = v))", {"u", "v"}},
      {{"implies", 2, 0xcab03643adfa9ae0ull}, "P_a(u) -> LEAF(u)", {"u"}},
      {{"iff-root", 2, 0xe7330302eff64e00ull},
       "ROOT(u) <-> ~exists w (LEQ(w, u) & ~(w = u))",
       {"u"}},
      {{"exists-path", 4, 0x9ab780d1f2e794ccull}, "exists w (S1(u, w) & S2(w, v))", {"u", "v"}},
      {{"forall-leaf", 3, 0x6d5728a75c0380c2ull},
       "forall w (LEQ(u, w) -> (P_a(w) | ~LEAF(w)))",
       {"u"}},
      {{"two-children", 2, 0x7d4f59be21547283ull},
       "exists w exists w2 (S1(u, w) & S2(u, w2))",
       {"u"}},
      {{"vacuous", 2, 0x21a7d4afd607dc80ull}, "exists w P_a(u)", {"u"}},
      {{"shadowed", 3, 0x156de5247aa37a02ull},
       "exists w (S1(u, w) & exists w (S2(u, w) & P_a(w)))",
       {"u"}},
      {{"s1-reach", 7, 0x205bcb2c7dba3dcfull},
       "forallset X ((u in X & forall w forall w2 ((w in X & S1(w, w2)) -> w2 in X)) "
       "-> v in X)",
       {"u", "v"}},
      {{"set-sep", 5, 0xeca2cd198ba01f0cull}, "existsset X (u in X & ~(v in X))", {"u", "v"}},
      {{"child-closure", 3, 0x6991ecefc7f49aabull},
       "exists z (S1(u, z) & forallset X ((z in X & forall w forall w2 ((w in X & "
       "S2(w, w2)) -> w2 in X)) -> v in X))",
       {"u", "v"}},
      {{"S1 vu", 3, 0xe010ce7062cd4dabull}, "S1(u, v)", {"v", "u"}},
      {{"extra-track", 2, 0x76402712660fc9caull}, "P_a(u)", {"u", "v"}},
      {{"three-pebble", 4, 0xcb5031089167a618ull}, "LEQ(u, w) & LEQ(w, v)", {"u", "w", "v"}},
      {{"siblings", 5, 0xdb3366f13304caf9ull},
       "CHILD(u, w) & CHILD(u, v) & ~(w = v)",
       {"u", "w", "v"}},
      {{"alternation", 4, 0x98cf9d4ba11a1827ull},
       "forall w (CHILD(u, w) -> exists w2 (LEQ(w, w2) & P_c(w2)))",
       {"u"}},
      {{"sentence-labeled", 0, 0xf3a3ff3d2c311fe7ull}, "forall w (P_a(w) | P_b(w) | P_c(w))", {}},
      {{"sentence-exists", 2, 0x4b9e1bdd30f2bf46ull}, "exists w P_c(w)", {}},
  };
  for (const Case& c : cases) ExpectPinned(c.pin, CompileFormula(c.formula, c.vars));
}

// The queries xpath_test cross-validates, plus the benchmark query on
// generated schools.
TEST(AutomatonDigestTest, XPathQueries) {
  const XmlDocument school = SchoolExampleDocument();
  const std::vector<std::pair<Pinned, std::string>> cases = {
      {{"param", 38, 0xaf4dfb415b4bbebdull}, "school/student[firstname=$1]/exam"},
      {{"literal", 8, 0x623d98fcf2e80514ull}, "school/student[firstname='Robert']/exam"},
      {{"plain", 4, 0x30d08455185b3814ull}, "school/student/exam"},
      {{"absent-literal", 0, 0x9217a8ca12a7011ull}, "school/student[firstname='Zork']/exam"},
      {{"descendant", 3, 0xc818d6edbeee0b3ull}, "school//exam"},
      {{"anywhere", 2, 0x68474bc4a6be6cb1ull}, "//exam"},
      {{"descendant-param", 39, 0x53e071ea5f7d53full}, "school//student[firstname=$1]/exam"},
  };
  for (const auto& [pin, xpath] : cases) ExpectPinned(pin, CompileXPath(school, xpath));

  Rng rng(41);
  const std::vector<Pinned> random_docs = {
      {"random-0", 38, 0xd715a5a1d4b54785ull},
      {"random-1", 38, 0xceca3c83dcb619ddull},
      {"random-2", 38, 0xad2a145f0785f625ull}};
  for (const Pinned& pin : random_docs) {
    XmlDocument doc = RandomSchoolDocument(8 + rng.Below(10), rng, 0, 20, 2);
    ExpectPinned(pin, CompileXPath(doc, "school/student[firstname=$1]/exam"));
  }

  const std::vector<Pinned> pools = {{"pool-1", 15, 0x6d3a5b52174dbc10ull},
                                     {"pool-2", 38, 0xddd1c1fd6050f6a5ull}};
  for (size_t pool = 1; pool <= pools.size(); ++pool) {
    Rng doc_rng(9);
    XmlDocument doc = RandomSchoolDocument(30, doc_rng, 0, 20, pool);
    ExpectPinned(pools[pool - 1],
                 CompileXPath(doc, "school/student[firstname=$1]/exam"));
  }
}

// The tree scheme's derived automata: the parameter track projected away,
// and the two pebble tracks swapped.
TEST(AutomatonDigestTest, TreeSchemeDerivedAutomata) {
  Dta query = CompileFormula("LEQ(u, v) & P_b(v)", {"u", "v"});
  ExpectPinned({"query", 3, 0xbcfb5d51051466bull}, query);
  ExpectPinned({"exists-a", 2, 0x7957009cd3594e00ull}, ProjectParamTrack(query, 3));
  ExpectPinned({"swapped", 3, 0x44f043c49447532bull}, SwapPebbleTracks(query, 3));
}

}  // namespace
}  // namespace qpwm
