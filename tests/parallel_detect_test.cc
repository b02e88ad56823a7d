// Determinism contract of the detection serving layer: the witness-resolve
// kernel (PairCarrier::Observe) reads exactly what the per-read oracle in
// detect_oracle.h reads — for unary and non-unary local results and for the
// tree scheme, under deletion, insertion and duplicate-row attacks, at any
// thread count — the flat serving overrides return the rows of
// per-parameter Answer() calls, and multi-suspect detection is
// bit-identical for any thread count of the fan-out.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "detect_oracle.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/answers.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/conjunctive.h"
#include "qpwm/logic/parser.h"
#include "qpwm/logic/query.h"
#include "qpwm/stream/faults.h"
#include "qpwm/structure/generators.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

// Restores the configured thread count even when a test fails mid-way.
class ThreadGuard {
 public:
  ThreadGuard() = default;
  ~ThreadGuard() { SetParallelThreads(0); }
};

// A planned local-scheme workload shared by the detection tests.
struct LocalWorkload {
  Structure g;
  std::unique_ptr<ParametricQuery> query;
  std::optional<QueryIndex> index;
  std::optional<WeightMap> weights;
  std::optional<LocalScheme> scheme;

  static LocalWorkload Build(uint64_t seed, size_t n = 400) {
    LocalWorkload wl;
    Rng rng(seed);
    wl.g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    wl.query = AtomQuery::Adjacency("E");
    wl.index.emplace(wl.g, *wl.query, AllParams(wl.g, 1));
    wl.weights.emplace(RandomWeights(wl.g, 1000, 9999, rng));
    wl.PlanScheme(seed);
    return wl;
  }

  // Result arity 2: psi(u; v1, v2) = the 2-paths leaving u. Weights live on
  // the sparse (tuple-keyed) WeightMap path.
  static LocalWorkload BuildBinary(uint64_t seed, size_t n = 150) {
    LocalWorkload wl;
    Rng rng(seed);
    wl.g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    wl.query = std::make_unique<ConjunctiveQuery>(
        ConjunctiveQuery::Parse("E(u1, v1), E(v1, v2)").ValueOrDie());
    wl.index.emplace(wl.g, *wl.query, AllParams(wl.g, 1));
    wl.weights.emplace(2, wl.g.universe_size());
    for (size_t w = 0; w < wl.index->num_active(); ++w) {
      wl.weights->Set(wl.index->active_element(w), rng.Uniform(1000, 9999));
    }
    wl.PlanScheme(seed);
    return wl;
  }

 private:
  void PlanScheme(uint64_t seed) {
    LocalSchemeOptions opts;
    opts.epsilon = 0.25;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    scheme.emplace(LocalScheme::Plan(*index, opts).ValueOrDie());
  }
};

void ExpectSameAnswers(const AnswerSet& a, const AnswerSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element, b[i].element) << "row " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << "row " << i;
  }
}

// The flat batch's parameter `p`, as an AnswerSet.
AnswerSet FlatParam(const FlatAnswers& batch, size_t p) {
  AnswerSet out;
  for (uint32_t r = batch.param_offsets[p]; r < batch.param_offsets[p + 1]; ++r) {
    out.push_back({Tuple(batch.elems.begin() + batch.elem_offsets[r],
                         batch.elems.begin() + batch.elem_offsets[r + 1]),
                   batch.weights[r]});
  }
  return out;
}

// AnswerAllFlat(params) holds exactly the rows of Answer(params[i]).
void ExpectFlatMatchesPerCall(const AnswerServer& server,
                              const std::vector<Tuple>& params) {
  FlatAnswers flat;
  server.AnswerAllFlat(params, flat);
  ASSERT_EQ(flat.num_params(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    ExpectSameAnswers(FlatParam(flat, i), server.Answer(params[i]));
  }
}

void ExpectSameObservations(const std::vector<PairObservation>& a,
                            const std::vector<PairObservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].erased, b[i].erased) << "pair " << i;
    EXPECT_EQ(a[i].delta, b[i].delta) << "pair " << i;
  }
}

void ExpectSameDetections(const AdversarialDetection& a,
                          const AdversarialDetection& b) {
  ASSERT_EQ(a.mark.size(), b.mark.size());
  for (size_t i = 0; i < a.mark.size(); ++i) {
    EXPECT_EQ(a.mark.Get(i), b.mark.Get(i)) << "bit " << i;
  }
  EXPECT_EQ(a.margins, b.margins);
  EXPECT_EQ(a.min_margin, b.min_margin);
  EXPECT_EQ(a.group_sizes, b.group_sizes);
  EXPECT_EQ(a.bit_erased, b.bit_erased);
  EXPECT_EQ(a.pairs_erased, b.pairs_erased);
  EXPECT_EQ(a.bits_recovered, b.bits_recovered);
  EXPECT_EQ(a.bits_erased, b.bits_erased);
}

size_t CountErased(const std::vector<PairObservation>& observations) {
  size_t erased = 0;
  for (const PairObservation& obs : observations) erased += obs.erased;
  return erased;
}

// Plants duplicate rows for pair reads through their witness answers: every
// third read gets a forged duplicate (true weight + 7), every third an equal
// one. `key_tuple` maps the carrier's keys to element tuples.
template <typename KeyTuple>
void PlantDuplicates(const PairCarrier& carrier, const WeightMap& marked,
                     TamperedAnswerServer& server, KeyTuple key_tuple) {
  const WitnessPlan& plan = carrier.witness_plan();
  for (size_t s = 0; s < plan.params.size(); ++s) {
    for (uint32_t i = plan.read_offsets[s]; i < plan.read_offsets[s + 1]; ++i) {
      const Tuple element = key_tuple(plan.reads[i].second);
      const Weight w = marked.Get(element);
      if (i % 3 == 0) server.InsertAt(plan.params[s], {element, w + 7});
      if (i % 3 == 1) server.InsertAt(plan.params[s], {element, w});
    }
  }
}

// Kernel vs oracle for a local workload: 30% deletion plus fresh-row
// insertion plus planted duplicates, checked at 1, 2 and 8 threads (query
// evaluation and the DetectMany fan-out are the threaded parts).
void CheckLocalKernelAgainstOracle(const LocalWorkload& wl, uint64_t seed) {
  ThreadGuard guard;
  const LocalScheme& scheme = *wl.scheme;
  ASSERT_GT(scheme.CapacityBits(), 0u);
  AdversarialScheme adv(scheme, 3);

  Rng rng(seed);
  std::vector<std::unique_ptr<HonestServer>> bases;
  std::vector<std::unique_ptr<TamperedAnswerServer>> suspects;
  std::vector<const AnswerServer*> ptrs;
  for (int k = 0; k < 3; ++k) {
    BitVec mark(scheme.CapacityBits());
    for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
    bases.push_back(std::make_unique<HonestServer>(
        *wl.index, scheme.Embed(*wl.weights, mark)));
    suspects.push_back(std::make_unique<TamperedAnswerServer>(*bases.back()));
    TamperedAnswerServer& server = *suspects.back();
    for (const Tuple& t : SubsetDeletionAttack(*wl.index, 0.3, rng)) server.Erase(t);
    TupleInsertionAttack(server, *wl.index, bases.back()->weights(),
                         wl.index->num_active() / 4, rng);
    PlantDuplicates(scheme, bases.back()->weights(), server, [&](uint32_t key) {
      return wl.index->active_element(key);
    });
    ptrs.push_back(&server);
  }

  std::vector<AdversarialDetection> reference;
  for (const AnswerServer* s : ptrs) {
    reference.push_back(adv.Detect(*wl.weights, *s).ValueOrDie());
  }
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    for (const AnswerServer* s : ptrs) {
      const std::vector<PairObservation> expected =
          oracle::ObservePairs(scheme, *wl.weights, *s);
      const size_t erased = CountErased(expected);
      ASSERT_GT(erased, 0u) << "attack too weak to exercise the erasure path";
      ASSERT_LT(erased, expected.size()) << "attack erased every pair";
      ExpectSameObservations(expected, scheme.ObservePairs(*wl.weights, *s));
    }
    const std::vector<AdversarialDetection> out =
        adv.DetectMany(*wl.weights, ptrs);
    ASSERT_EQ(out.size(), reference.size());
    for (size_t s = 0; s < out.size(); ++s) {
      ExpectSameDetections(reference[s], out[s]);
    }
  }
}

// --- Dense weight views ----------------------------------------------------

TEST(DenseViewTest, MatchesSparseReads) {
  LocalWorkload wl = LocalWorkload::Build(11);
  const QueryIndex& index = *wl.index;
  const WeightMap& weights = *wl.weights;
  DenseWeightView view(index, weights);
  ASSERT_EQ(view.size(), index.num_active());
  for (size_t w = 0; w < index.num_active(); ++w) {
    ASSERT_EQ(view.at(w), weights.Get(index.active_element(w)));
  }
  for (size_t a = 0; a < index.num_params(); ++a) {
    ExpectSameAnswers(index.AnswersFor(a, view), index.AnswersFor(a, weights));
  }
}

TEST(DenseViewTest, HonestServerDenseAgreesWithSparseIncludingOutOfDomain) {
  Rng rng(12);
  Structure g = RandomBoundedDegreeGraph(200, 3, 600, false, rng);
  auto query = AtomQuery::Adjacency("E");
  // Register only part of the domain so some parameters are served through
  // the direct-evaluation fallback rather than the index (and its view).
  std::vector<Tuple> domain = AllParams(g, 1);
  std::vector<Tuple> held_out(domain.end() - 20, domain.end());
  domain.resize(domain.size() - 20);
  QueryIndex index(g, *query, domain);
  WeightMap weights = RandomWeights(g, 1000, 9999, rng);

  HonestServer server(index, weights);
  for (size_t a = 0; a < domain.size(); ++a) {
    ExpectSameAnswers(server.Answer(domain[a]), index.AnswersFor(a, weights));
  }
  for (const Tuple& p : held_out) {
    ASSERT_FALSE(index.FindParam(p).ok());
    AnswerSet sparse;
    for (Tuple& t : query->Evaluate(g, p)) {
      const Weight w = weights.Get(t);
      sparse.push_back({std::move(t), w});
    }
    ExpectSameAnswers(server.Answer(p), sparse);
  }
  std::vector<Tuple> all = domain;
  all.insert(all.end(), held_out.begin(), held_out.end());
  ExpectFlatMatchesPerCall(server, all);
}

// --- Flat answer serving ---------------------------------------------------

TEST(BatchDetectTest, TamperedBatchMatchesPerCallAnswers) {
  LocalWorkload wl = LocalWorkload::Build(21, 200);
  const QueryIndex& index = *wl.index;
  HonestServer base(index, *wl.weights);
  TamperedAnswerServer server(base);
  Rng rng(210);
  for (const Tuple& t : SubsetDeletionAttack(index, 0.3, rng)) server.Erase(t);
  TupleInsertionAttack(server, index, base.weights(), index.num_active() / 4, rng);
  // Planted rows naming real (some erased) elements, a fresh one everywhere.
  server.InsertAt(index.param(0), {index.active_element(0), 5});
  server.InsertAt(index.param(1), {index.active_element(1), 6});
  server.InsertEverywhere({Tuple{static_cast<ElemId>(wl.g.universe_size() + 1)}, 9});
  ASSERT_GT(server.num_erased(), 0u);

  // The domain in order, repeated parameters, and an empty request.
  std::vector<Tuple> params = index.domain();
  params.push_back(index.param(0));
  ExpectFlatMatchesPerCall(server, params);
  ExpectFlatMatchesPerCall(server, {});

  // A tampered server over a server without a flat override (the default
  // AnswerAllFlat) serves the same rows too.
  TamperedAnswerServer stacked(server);
  stacked.Erase(index.active_element(2));
  stacked.InsertAt(index.param(2), {index.active_element(3), 11});
  ExpectFlatMatchesPerCall(stacked, params);
}

TEST(BatchDetectTest, FaultyServerTicksPerPlan) {
  LocalWorkload wl = LocalWorkload::Build(25, 100);
  HonestServer base(*wl.index, *wl.weights);
  const std::vector<Tuple> params(wl.index->domain().begin(),
                                  wl.index->domain().begin() + 10);
  FlatAnswers honest;
  base.AnswerAllFlat(params, honest);
  const uint64_t rows = honest.num_rows();
  const uint64_t n = params.size();
  ASSERT_GT(rows, 0u);

  struct Case {
    FaultPlan plan;
    uint64_t first_ticks;   // after one AnswerAllFlat
    uint64_t second_ticks;  // after a second AnswerAllFlat
    bool served_first;
  };
  FaultPlan lose, fail, slow;
  lose.lose_epoch = true;
  fail.fail_batch = true;
  slow.slow_penalty_ticks = 300;
  const std::vector<Case> cases = {
      {FaultPlan{}, n + rows, 2 * (n + rows), true},
      {lose, n, 2 * n, false},
      {fail, n, 2 * n + rows, false},
      {slow, 300 + n + rows, 300 + 2 * (n + rows), true},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    FaultyAnswerServer faulty(base, cases[c].plan);
    FlatAnswers out;
    faulty.AnswerAllFlat(params, out);
    EXPECT_EQ(faulty.ticks(), cases[c].first_ticks) << "case " << c;
    ASSERT_EQ(out.num_params(), n);
    EXPECT_EQ(out.num_rows(), cases[c].served_first ? rows : 0u) << "case " << c;
    EXPECT_EQ(faulty.faulted(), !cases[c].served_first) << "case " << c;
    faulty.AnswerAllFlat(params, out);
    EXPECT_EQ(faulty.ticks(), cases[c].second_ticks) << "case " << c;
  }

  // Per-call answers: one tick per call plus one per row served.
  FaultyAnswerServer per_call(base, FaultPlan{});
  uint64_t expected = 0;
  for (const Tuple& p : params) expected += 1 + per_call.Answer(p).size();
  EXPECT_EQ(per_call.ticks(), expected);
}

// --- Kernel vs oracle ------------------------------------------------------

TEST(ParallelDetectTest, LocalUnaryKernelMatchesOracle) {
  LocalWorkload wl = LocalWorkload::Build(22);
  ASSERT_TRUE(wl.index->has_unary_actives());
  CheckLocalKernelAgainstOracle(wl, 220);
}

TEST(ParallelDetectTest, LocalBinaryKernelMatchesOracle) {
  LocalWorkload wl = LocalWorkload::BuildBinary(23);
  ASSERT_EQ(wl.query->ResultArity(), 2u);
  ASSERT_FALSE(wl.index->has_unary_actives());
  CheckLocalKernelAgainstOracle(wl, 230);
}

TEST(ParallelDetectTest, TreeKernelMatchesOracle) {
  ThreadGuard guard;
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(24);
  BinaryTree t = RandomBinaryTree(400, 3, rng);
  TreeSchemeOptions opts;
  opts.key = {0xAB, 0xCD};
  opts.encoding = PairEncoding::kAntipodal;
  TreeScheme scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);

  WeightMap weights(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) weights.SetElem(v, 100 + v % 800);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  const WeightMap marked = scheme.Embed(weights, mark);
  HonestTreeServer base(t, t.labels(), 3, query, 1, marked);
  TamperedAnswerServer server(base);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (rng.Bernoulli(0.3)) server.Erase(Tuple{v});
  }
  for (int k = 0; k < 40; ++k) {
    server.InsertEverywhere(
        {Tuple{static_cast<ElemId>(t.size() + k)}, rng.Uniform(100, 900)});
  }
  PlantDuplicates(scheme, marked, server, [](uint32_t key) { return Tuple{key}; });

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    const std::vector<PairObservation> expected =
        oracle::ObservePairs(scheme, weights, server);
    const size_t erased = CountErased(expected);
    ASSERT_GT(erased, 0u);
    ASSERT_LT(erased, expected.size());
    ExpectSameObservations(expected, scheme.ObservePairs(weights, server));
    // Honest answers: nothing erased, every delta is the embedded +-2.
    ExpectSameObservations(oracle::ObservePairs(scheme, weights, base),
                           scheme.ObservePairs(weights, base));
    EXPECT_EQ(CountErased(scheme.ObservePairs(weights, base)), 0u);
  }
}

// --- Parallel multi-suspect fan-out ----------------------------------------

TEST(ParallelDetectTest, DetectManyIdenticalAcrossThreads) {
  ThreadGuard guard;
  LocalWorkload wl = LocalWorkload::Build(31);
  AdversarialScheme adv(*wl.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);

  // A mixed lineup: distinct messages per suspect, half of them structurally
  // attacked, to make sure per-suspect state never bleeds across the pool.
  constexpr size_t kSuspects = 6;
  std::vector<std::unique_ptr<HonestServer>> bases;
  std::vector<std::unique_ptr<TamperedAnswerServer>> tampered;
  std::vector<const AnswerServer*> suspects;
  for (size_t s = 0; s < kSuspects; ++s) {
    Rng rng(310 + s);
    BitVec msg(adv.CapacityBits());
    for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
    bases.push_back(
        std::make_unique<HonestServer>(*wl.index, adv.Embed(*wl.weights, msg)));
    if (s % 2 == 0) {
      suspects.push_back(bases.back().get());
      continue;
    }
    tampered.push_back(std::make_unique<TamperedAnswerServer>(*bases.back()));
    for (const Tuple& t : SubsetDeletionAttack(*wl.index, 0.25, rng)) {
      tampered.back()->Erase(t);
    }
    suspects.push_back(tampered.back().get());
  }

  SetParallelThreads(1);
  std::vector<AdversarialDetection> reference;
  for (const AnswerServer* s : suspects) {
    reference.push_back(adv.Detect(*wl.weights, *s).ValueOrDie());
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    std::vector<AdversarialDetection> out = adv.DetectMany(*wl.weights, suspects);
    ASSERT_EQ(out.size(), reference.size());
    for (size_t s = 0; s < out.size(); ++s) {
      ExpectSameDetections(reference[s], out[s]);
    }
  }
}

}  // namespace
}  // namespace qpwm
