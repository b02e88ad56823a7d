#include <gtest/gtest.h>

#include <cmath>

#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/relational/table.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/attack.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

namespace qpwm {
namespace {

struct Fixture {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights;
  std::unique_ptr<LocalScheme> scheme;

  explicit Fixture(size_t n, uint64_t seed) : weights(1, 0) {
    Rng rng(seed);
    g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    query = AtomQuery::Adjacency("E");
    index = std::make_unique<QueryIndex>(g, *query, AllParams(g, 1));
    weights = RandomWeights(g, 1000, 9999, rng);
    LocalSchemeOptions opts;
    opts.epsilon = 0.25;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    scheme = std::make_unique<LocalScheme>(
        LocalScheme::Plan(*index, opts).ValueOrDie());
  }
};

// Embeds a random message and returns (message, detection) after erasing the
// elements SubsetDeletionAttack selects at `drop_frac`.
std::pair<BitVec, AdversarialDetection> RunDeletion(Fixture& s,
                                                    const AdversarialScheme& adv,
                                                    double drop_frac,
                                                    uint64_t seed) {
  Rng rng(seed);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  HonestServer base(*s.index, marked);
  TamperedAnswerServer server(base);
  for (const Tuple& t : SubsetDeletionAttack(*s.index, drop_frac, rng)) {
    server.Erase(t);
  }
  return {msg, adv.Detect(s.weights, server).ValueOrDie()};
}

TEST(StructuralAttackTest, TamperedServerErasesAndInserts) {
  Fixture s(100, 1);
  HonestServer base(*s.index, s.weights);
  TamperedAnswerServer server(base);

  // Before tampering: identical answers.
  const Tuple& p = s.index->param(0);
  EXPECT_EQ(server.Answer(p).size(), base.Answer(p).size());

  // Erasing an element removes its rows everywhere.
  ASSERT_GT(s.index->num_active(), 0u);
  Tuple victim = s.index->active_element(0);
  server.Erase(victim);
  EXPECT_EQ(server.num_erased(), 1u);
  for (size_t a = 0; a < s.index->num_params(); ++a) {
    for (const AnswerRow& row : server.Answer(s.index->param(a))) {
      EXPECT_NE(row.element, victim);
    }
  }

  // Insertions append spurious rows at one parameter / everywhere.
  server.InsertAt(p, {Tuple{static_cast<ElemId>(10000)}, 42});
  EXPECT_GE(server.Answer(p).size(), 1u);
  server.InsertEverywhere({Tuple{static_cast<ElemId>(10001)}, 7});
  for (size_t a = 0; a < s.index->num_params(); ++a) {
    const AnswerSet rows = server.Answer(s.index->param(a));
    bool found = false;
    for (const AnswerRow& row : rows) {
      found |= row.element == Tuple{static_cast<ElemId>(10001)};
    }
    EXPECT_TRUE(found);
  }
}

TEST(StructuralAttackTest, FullMarkSurvivesThirtyPercentPairDeletion) {
  // The acceptance workload: redundancy 5, 30% of pairs deleted (element
  // rate 1 - sqrt(0.7)); each bit dies only with probability 0.3^5.
  Fixture s(600, 17);
  AdversarialScheme adv(*s.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);
  auto [msg, d] = RunDeletion(s, adv, 1.0 - std::sqrt(0.7), 170);
  EXPECT_TRUE(d.complete());
  EXPECT_EQ(d.mark, msg);
  EXPECT_GT(d.pairs_erased, 0u);  // the attack really landed
  EXPECT_EQ(d.min_margin, 1.0);   // erasures abstain, survivors are unanimous
}

TEST(StructuralAttackTest, DeletionDegradesToErasuresNeverWrongBits) {
  // Up to the majority-breaking point and beyond: bits drop out as erasures,
  // recovered bits never contradict the embedded message.
  Fixture s(400, 23);
  AdversarialScheme adv(*s.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto [msg, d] = RunDeletion(s, adv, frac, 230 + static_cast<uint64_t>(frac * 10));
    EXPECT_EQ(d.bits_recovered + d.bits_erased, d.mark.size());
    for (size_t i = 0; i < d.mark.size(); ++i) {
      if (!d.bit_erased[i]) {
        EXPECT_EQ(d.mark.Get(i), msg.Get(i)) << "bit " << i;
      }
    }
  }
}

TEST(StructuralAttackTest, ErasureCountsGrowMonotonically) {
  // Confidence decays monotonically in the deletion rate: nested deletions
  // (same seed, growing fraction) only ever erase more pairs and more bits.
  Fixture s(400, 29);
  AdversarialScheme adv(*s.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);
  size_t prev_pairs = 0;
  size_t prev_bits = 0;
  size_t prev_recovered = adv.CapacityBits();
  for (double frac : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto [msg, d] = RunDeletion(s, adv, frac, 290);
    (void)msg;
    EXPECT_GE(d.pairs_erased, prev_pairs);
    EXPECT_GE(d.bits_erased, prev_bits);
    EXPECT_LE(d.bits_recovered, prev_recovered);
    prev_pairs = d.pairs_erased;
    prev_bits = d.bits_erased;
    prev_recovered = d.bits_recovered;
  }
  // Total deletion: everything is erased, nothing is fabricated.
  auto [msg, d] = RunDeletion(s, adv, 1.0, 290);
  (void)msg;
  EXPECT_EQ(d.bits_recovered, 0u);
  EXPECT_EQ(d.bits_erased, d.mark.size());
  EXPECT_EQ(d.min_margin, 0.0);
  for (size_t i = 0; i < d.mark.size(); ++i) {
    EXPECT_TRUE(d.bit_erased[i]);
    EXPECT_EQ(d.margins[i], 0.0);
  }
}

TEST(StructuralAttackTest, InsertionAloneIsHarmless) {
  // Spurious rows belong to no registered pair: every vote survives.
  Fixture s(300, 31);
  AdversarialScheme adv(*s.scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);
  Rng rng(31);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  HonestServer base(*s.index, marked);
  TamperedAnswerServer server(base);
  TupleInsertionAttack(server, *s.index, marked, 500, rng);
  AdversarialDetection d = adv.Detect(s.weights, server).ValueOrDie();
  EXPECT_TRUE(d.complete());
  EXPECT_EQ(d.mark, msg);
  EXPECT_EQ(d.pairs_erased, 0u);
  EXPECT_EQ(d.min_margin, 1.0);
}

TEST(StructuralAttackTest, StrictDetectionStillFailsOnErasure) {
  // The legacy all-or-nothing path keeps its contract: any structural
  // tampering is a detection failure, not a silent wrong answer.
  Fixture s(200, 37);
  Rng rng(37);
  BitVec msg(s.scheme->CapacityBits());
  WeightMap marked = s.scheme->Embed(s.weights, msg);
  HonestServer base(*s.index, marked);
  TamperedAnswerServer server(base);
  server.Erase(s.index->active_element(0));
  auto detected = s.scheme->Detect(s.weights, server);
  ASSERT_FALSE(detected.ok());
  EXPECT_EQ(detected.status().code(), StatusCode::kDetectionFailed);
}

// The witness parameter and key through which `carrier` reads `slot`.
std::pair<Tuple, uint32_t> ReadOf(const PairCarrier& carrier, uint32_t slot) {
  const WitnessPlan& plan = carrier.witness_plan();
  for (size_t s = 0; s < plan.params.size(); ++s) {
    for (uint32_t i = plan.read_offsets[s]; i < plan.read_offsets[s + 1]; ++i) {
      if (plan.reads[i].first == slot) return {plan.params[s], plan.reads[i].second};
    }
  }
  ADD_FAILURE() << "slot " << slot << " has no read";
  return {};
}

// Plants a second row for pair 0's plus element in its witness answer: a
// forged weight (the value that flips the pair's delta) after the true row,
// the forged row before the true one, and a second true row. A forged
// duplicate must read as an erasure whichever row comes first; an equal
// duplicate reads normally. Every other pair reads as on clean answers.
void CheckDuplicateRowRule(const PairCarrier& carrier, const Tuple& element,
                           const WeightMap& original, const WeightMap& marked,
                           const AnswerServer& base) {
  const std::vector<PairObservation> clean = carrier.ObservePairs(original, base);
  ASSERT_FALSE(clean[0].erased);
  ASSERT_NE(clean[0].delta, 0);
  const Tuple witness = ReadOf(carrier, 0).first;
  const Weight truth = marked.Get(element);
  const Weight forged = truth - clean[0].delta;
  auto observe = [&](bool forged_first, Weight planted) {
    TamperedAnswerServer server(base);
    if (forged_first) {
      // Erase drops only the base row; planted rows are appended after it.
      server.Erase(element);
      server.InsertAt(witness, {element, forged});
    }
    server.InsertAt(witness, {element, planted});
    std::vector<PairObservation> obs = carrier.ObservePairs(original, server);
    EXPECT_EQ(obs.size(), clean.size());
    for (size_t i = 1; i < obs.size() && i < clean.size(); ++i) {
      EXPECT_EQ(obs[i].erased, clean[i].erased) << "pair " << i;
      EXPECT_EQ(obs[i].delta, clean[i].delta) << "pair " << i;
    }
    return obs[0];
  };
  EXPECT_TRUE(observe(false, forged).erased) << "forged row last chose the read";
  EXPECT_TRUE(observe(true, truth).erased) << "forged row first chose the read";
  const PairObservation equal = observe(false, truth);
  EXPECT_FALSE(equal.erased);
  EXPECT_EQ(equal.delta, clean[0].delta);
}

TEST(StructuralAttackTest, LocalDuplicateRowReadsAsErasureUnlessEqual) {
  Fixture s(200, 67);
  const LocalScheme& scheme = *s.scheme;
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, i % 2 == 0);
  const WeightMap marked = scheme.Embed(s.weights, mark);
  HonestServer base(*s.index, marked);
  const Tuple element = s.index->active_element(ReadOf(scheme, 0).second);
  CheckDuplicateRowRule(scheme, element, s.weights, marked, base);
}

TEST(StructuralAttackTest, TreeDuplicateRowReadsAsErasureUnlessEqual) {
  Rng rng(71);
  XmlDocument doc = RandomSchoolDocument(60, rng, 0, 20, 2);
  EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  XPathQuery query =
      XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  TrackedDta dta = query.Compile(enc).ValueOrDie();
  const auto sigma = static_cast<uint32_t>(enc.sigma.size());
  TreeSchemeOptions opts;
  opts.key = {71, 72};
  opts.encoding = PairEncoding::kAntipodal;
  TreeScheme scheme =
      TreeScheme::Plan(enc.tree, enc.tree.labels(), sigma, dta.dta, 1, opts)
          .ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, i % 2 == 0);
  const WeightMap marked = scheme.Embed(enc.weights, mark);
  HonestTreeServer base(enc.tree, enc.tree.labels(), sigma, dta.dta, 1, marked);
  const Tuple element{ReadOf(scheme, 0).second};
  CheckDuplicateRowRule(scheme, element, enc.weights, marked, base);
}

TEST(StructuralAttackTest, CollusionDomainMismatchIsAnError) {
  Fixture s(100, 41);
  WeightMap other(1, s.g.universe_size() + 5);
  auto averaged = AveragingCollusionAttack({&s.weights, &other});
  ASSERT_FALSE(averaged.ok());
  EXPECT_EQ(averaged.status().code(), StatusCode::kInvalidArgument);
  auto empty = AveragingCollusionAttack({});
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // The mismatch is rejected wherever it sits in the copy list, and a
  // single-copy "collusion" of the right domain still succeeds (it is the
  // identity average).
  auto late_mismatch =
      AveragingCollusionAttack({&s.weights, &s.weights, &other});
  ASSERT_FALSE(late_mismatch.ok());
  EXPECT_EQ(late_mismatch.status().code(), StatusCode::kInvalidArgument);
  auto single = AveragingCollusionAttack({&s.weights});
  ASSERT_TRUE(single.ok());
  bool same = true;
  s.weights.ForEach([&](const Tuple& t, Weight w) {
    same &= single.value().Get(t) == w;
  });
  EXPECT_TRUE(same);
}

TEST(StructuralAttackTest, SubsetDeletionSamplesRequestedFraction) {
  Fixture s(500, 43);
  Rng rng(43);
  EXPECT_TRUE(SubsetDeletionAttack(*s.index, 0.0, rng).empty());
  EXPECT_EQ(SubsetDeletionAttack(*s.index, 1.0, rng).size(),
            s.index->num_active());
  const size_t half = SubsetDeletionAttack(*s.index, 0.5, rng).size();
  EXPECT_GT(half, s.index->num_active() / 4);
  EXPECT_LT(half, s.index->num_active() * 3 / 4);
}

// --- Relational end to end ---------------------------------------------------

TEST(StructuralAttackTest, RelationalRowSubsetAlignsAndDetects) {
  Rng rng(47);
  Database db = RandomTravelDatabase(80, 100, 3, rng);
  RelationalInstance inst = ToWeightedStructure(db).ValueOrDie();
  AtomQuery route("Route", {{true, 0}, {false, 0}}, 1, 1);
  QueryIndex index(inst.structure, route, AllParams(inst.structure, 1));
  LocalSchemeOptions opts;
  opts.epsilon = 0.25;
  opts.key = {47, 48};
  opts.encoding = PairEncoding::kAntipodal;
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  AdversarialScheme adv(scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);

  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(inst.weights, msg);
  Database published = ApplyWeightsToDatabase(db, inst, marked).ValueOrDie();

  Database leaked;
  for (const Table& t : published.tables()) {
    leaked.AddTable(SubsetRowsAttack(t, 0.8, rng));
  }
  RelationalInstance suspect = ToWeightedStructure(leaked).ValueOrDie();
  AlignedSuspect aligned = AlignSuspectInstance(inst, suspect);
  EXPECT_GT(aligned.missing, 0u);
  EXPECT_GT(aligned.matched, 0u);

  HonestServer base(index, aligned.weights);
  TamperedAnswerServer server(base);
  for (ElemId e = 0; e < aligned.present.size(); ++e) {
    if (!aligned.present[e]) server.Erase(Tuple{e});
  }
  AdversarialDetection d = adv.Detect(inst.weights, server).ValueOrDie();
  for (size_t i = 0; i < d.mark.size(); ++i) {
    if (!d.bit_erased[i]) {
      EXPECT_EQ(d.mark.Get(i), msg.Get(i)) << "bit " << i;
    }
  }
}

TEST(StructuralAttackTest, AlignmentTreatsLostWeightRowAsErased) {
  // An element can survive in a key column while the row carrying its weight
  // is deleted: it must be served as erased, never as weight 0.
  Database db = TravelAgencyDatabase();
  RelationalInstance inst = ToWeightedStructure(db).ValueOrDie();

  Database leaked = db;
  Table* timetable = leaked.FindMutable("Timetable").ValueOrDie();
  // Rebuild the timetable without the F21 row; F21 stays in Route.
  Table trimmed(timetable->name(), timetable->columns());
  for (size_t r = 0; r < timetable->num_rows(); ++r) {
    if (timetable->KeyAt(r, 0) != "F21") {
      ASSERT_TRUE(trimmed.AddRow(timetable->row(r)).ok());
    }
  }
  *timetable = trimmed;

  RelationalInstance suspect = ToWeightedStructure(leaked).ValueOrDie();
  ElemId f21 = inst.structure.FindElement("F21").ValueOrDie();
  ASSERT_TRUE(suspect.structure.FindElement("F21").ok());  // still a key
  AlignedSuspect aligned = AlignSuspectInstance(inst, suspect);
  EXPECT_FALSE(aligned.present[f21]);
}

// --- XML end to end ----------------------------------------------------------

TEST(StructuralAttackTest, XmlSubtreeDeletionShrinksDocument) {
  Rng rng(53);
  XmlDocument doc = RandomSchoolDocument(50, rng, 0, 20, 3);
  XmlDocument attacked = SubtreeDeletionAttack(doc, 0.3, rng);
  EXPECT_LT(attacked.size(), doc.size());
  EXPECT_GT(attacked.size(), 0u);
  // Round-trips through the serializer (structurally valid).
  EXPECT_TRUE(ParseXml(SerializeXml(attacked)).ok());

  XmlDocument grown = ElementInsertionAttack(doc, 0.2, rng);
  EXPECT_GT(grown.size(), doc.size());
  EXPECT_TRUE(ParseXml(SerializeXml(grown)).ok());
}

TEST(StructuralAttackTest, XmlAlignmentRecoversAfterSubtreeDeletion) {
  Rng rng(59);
  XmlDocument doc = RandomSchoolDocument(60, rng, 0, 20, 2);
  EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  XPathQuery query =
      XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  TrackedDta dta = query.Compile(enc).ValueOrDie();
  const auto sigma = static_cast<uint32_t>(enc.sigma.size());
  TreeSchemeOptions opts;
  opts.key = {59, 60};
  opts.encoding = PairEncoding::kAntipodal;
  TreeScheme scheme =
      TreeScheme::Plan(enc.tree, enc.tree.labels(), sigma, dta.dta, 1, opts)
          .ValueOrDie();
  AdversarialScheme adv(scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);

  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(enc.weights, msg);
  XmlDocument published = ApplyWeights(doc, enc, marked);

  // Clean suspect: alignment is exact, detection is full.
  {
    SuspectAlignment aligned =
        AlignSuspectWeights(doc, enc, published, {"exam"}).ValueOrDie();
    EXPECT_EQ(aligned.missing, 0u);
    EXPECT_EQ(aligned.extra, 0u);
    HonestTreeServer server(enc.tree, enc.tree.labels(), sigma, dta.dta, 1,
                            aligned.weights);
    AdversarialDetection d = adv.Detect(enc.weights, server).ValueOrDie();
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.mark, msg);
  }

  // Tampered suspect: records vanish, recovered bits stay correct.
  {
    XmlDocument leaked = SubtreeDeletionAttack(published, 0.15, rng);
    SuspectAlignment aligned =
        AlignSuspectWeights(doc, enc, leaked, {"exam"}).ValueOrDie();
    EXPECT_GT(aligned.missing, 0u);
    HonestTreeServer server(enc.tree, enc.tree.labels(), sigma, dta.dta, 1,
                            aligned.weights);
    TamperedAnswerServer tampered(server);
    for (NodeId v = 0; v < aligned.present.size(); ++v) {
      if (!aligned.present[v]) tampered.Erase(Tuple{v});
    }
    AdversarialDetection d = adv.Detect(enc.weights, tampered).ValueOrDie();
    EXPECT_GT(d.pairs_erased, 0u);
    for (size_t i = 0; i < d.mark.size(); ++i) {
      if (!d.bit_erased[i]) {
        EXPECT_EQ(d.mark.Get(i), msg.Get(i)) << "bit " << i;
      }
    }
  }
}

TEST(StructuralAttackTest, XmlInsertionDegradesToExtrasAndErasures) {
  Rng rng(61);
  XmlDocument doc = RandomSchoolDocument(40, rng, 0, 20, 3);
  EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  XmlDocument grown = ElementInsertionAttack(doc, 0.3, rng);
  SuspectAlignment aligned =
      AlignSuspectWeights(doc, enc, grown, {"exam"}).ValueOrDie();
  // Cloned records show up as extras. Clones that duplicate a *key* field
  // change their record's signature, so such originals degrade to erasures —
  // never to a silently wrong match.
  EXPECT_GT(aligned.extra, 0u);
  EXPECT_GT(aligned.matched, aligned.missing);
  size_t weight_records = 0;
  for (size_t v = 0; v < enc.is_weight_node.size(); ++v) {
    weight_records += enc.is_weight_node[v];
  }
  EXPECT_EQ(aligned.matched + aligned.missing, weight_records);
}

}  // namespace
}  // namespace qpwm
