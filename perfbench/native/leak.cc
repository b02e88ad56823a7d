#include "leak.h"

#include <algorithm>
#include <map>
#include <vector>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/coding/fingerprint.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/random.h"
#include "counts.h"

namespace perfbench {

using namespace qpwm;

namespace {

constexpr size_t kElements = 100000;
constexpr size_t kRedundancy = 3;
constexpr uint64_t kCandidates = 20000;
constexpr size_t kDesignC = 5;
constexpr size_t kCopies = 4;  // marked copies; suspects are read round robin
constexpr double kDeletionFrac = 0.03;
constexpr double kInsertionFrac = 0.02;

uint64_t HashWeights(const WeightMap& w) {
  uint64_t h = 0;
  w.ForEach([&](const Tuple& t, Weight v) {
    for (ElemId e : t) h = HashCombine(h, e);
    h = HashCombine(h, static_cast<uint64_t>(v));
  });
  return h;
}

// Times the op body inside a root span; the checks run after it.
template <typename Fn>
auto TimedOp(Tracer& t, const char* name, LeakOutcome& out, Fn&& fn) {
  const double t0 = NowMs();
  auto result = [&] {
    Span op(t, name);
    return fn();
  }();
  out.wall_ms = NowMs() - t0;
  return result;
}

}  // namespace

struct LeakWorkload::State {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights{1, 0};
  std::unique_ptr<LocalScheme> scheme;
  std::unique_ptr<AdversarialScheme> adv;
  std::unique_ptr<MessageCodec> codec;
  std::unique_ptr<CodedWatermark> wm;
  std::unique_ptr<FingerprintedWatermark> fp;

  // Copy k carries recipients[k]'s codeword.
  std::vector<uint64_t> recipients;
  // Suspect k: a leaked copy with structural damage, and who leaked it (one
  // recipient, or a forging coalition).
  std::vector<ComposedSuspect> suspects;
  std::vector<std::vector<uint64_t>> leakers;
  std::map<size_t, uint64_t> first_mark_hash;  // copy -> hash
  size_t next_read = 0;
};

LeakWorkload::LeakWorkload(uint64_t seed, Tracer& t) : s_(std::make_unique<State>()) {
  State& s = *s_;
  // Each set-up models a fresh owner process: no canonical forms cached by
  // an earlier set-up.
  CanonCache::Global().Clear();
  Rng rng(seed);
  {
    Span span(t, "setup.generate");
    s.g = RandomBoundedDegreeGraph(kElements, 3, 3 * kElements, false, rng);
    s.query = AtomQuery::Adjacency("E");
    s.weights = RandomWeights(s.g, 1000, 9999, rng);
  }
  s.index = Traced(t, "core.query_index", [&] {
    return std::make_unique<QueryIndex>(s.g, *s.query, AllParams(s.g, 1));
  });
  LocalSchemeOptions opts;
  opts.epsilon = 0.25;
  opts.key = {seed, seed + 1};
  opts.encoding = PairEncoding::kAntipodal;
  s.scheme = Traced(t, "core.local_plan", [&] {
    return std::make_unique<LocalScheme>(LocalScheme::Plan(*s.index, opts).ValueOrDie());
  });
  const CanonCache::Stats canon = CanonCache::Global().stats();
  t.Count("structure.canon_hits", static_cast<double>(canon.hits));
  t.Count("structure.canon_misses", static_cast<double>(canon.misses));
  s.adv = std::make_unique<AdversarialScheme>(*s.scheme, kRedundancy);
  s.codec = MakeCodec("hamming").ValueOrDie();
  s.wm = std::make_unique<CodedWatermark>(*s.adv, *s.codec);
  TardosOptions topts;
  topts.design_c = kDesignC;
  topts.seed = seed + 1000;
  s.fp = std::make_unique<FingerprintedWatermark>(*s.wm, topts);
  t.Count("core.active_weights", static_cast<double>(s.index->num_active()));
  t.Count("core.params", static_cast<double>(s.index->num_params()));
  t.Count("core.pairs", static_cast<double>(s.scheme->CapacityBits()));
  t.Count("core.channel_bits", static_cast<double>(s.adv->CapacityBits()));

  Span span(t, "setup.suspects");
  for (size_t k = 0; k < kCopies; ++k) {
    // A single leaker, or a coalition of 2..design_c recipients forging one
    // copy with each known collusion attack in turn.
    std::vector<uint64_t> leakers;
    const size_t coalition = std::min(kDesignC, k + 1);
    while (leakers.size() < coalition) {
      const uint64_t r = rng.Below(kCandidates);
      if (std::find(leakers.begin(), leakers.end(), r) == leakers.end()) leakers.push_back(r);
    }
    std::vector<WeightMap> copies;
    for (uint64_t r : leakers) copies.push_back(s.fp->EmbedFor(s.weights, r));
    WeightMap leaked = copies[0];
    if (coalition > 1) {
      std::vector<const WeightMap*> ptrs;
      for (const WeightMap& c : copies) ptrs.push_back(&c);
      const std::vector<std::string>& forges = KnownCollusionSpecs();
      auto attack = MakeCollusionAttack(forges[k % forges.size()]).ValueOrDie();
      Rng arng(rng.Next());
      leaked = attack->Forge(ptrs, arng).ValueOrDie();
    }
    s.recipients.push_back(rng.Below(kCandidates));
    ComposedAttackSpec aspec;
    aspec.deletion_frac = kDeletionFrac;
    aspec.insertion_frac = kInsertionFrac;
    aspec.seed = rng.Next();
    s.suspects.push_back(ApplyComposedAttack(*s.index, s.scheme->marking().pairs(), kRedundancy,
                                             leaked, aspec));
    s.leakers.push_back(std::move(leakers));
  }
}

LeakWorkload::~LeakWorkload() = default;

LeakOutcome LeakWorkload::Mark(Tracer& t, bool corrupt) {
  State& s = *s_;
  LeakOutcome out;
  std::vector<WeightMap> marked = TimedOp(t, "op.mark", out, [&] {
    std::vector<WeightMap> copies;
    for (size_t k = 0; k < kCopies; ++k) {
      copies.push_back(
          Traced(t, "core.embed", [&] { return s.fp->EmbedFor(s.weights, s.recipients[k]); }));
    }
    return copies;
  });
  const Weight budget = static_cast<Weight>(s.scheme->Budget());
  if (corrupt) {
    // Moves the weight of one edge's target so far that its source's sum
    // leaves the bound whatever the mark did there.
    marked[0].AddElem(s.g.relation(0).tuples()[0][1], 2 * budget + 1);
  }
  std::vector<std::string> problems;
  for (size_t k = 0; k < kCopies; ++k) {
    const uint64_t h = HashWeights(marked[k]);
    auto [it, first] = s.first_mark_hash.emplace(k, h);
    if (!first && it->second != h) {
      problems.push_back("repeated mark of copy " + std::to_string(k) + " differs");
    }
    // Per-parameter drift of the adjacency query E(u1, v1), summed straight
    // from the relation's tuples (independent of the planner's QueryIndex).
    std::vector<Weight> drift(s.g.universe_size(), 0);
    for (auto tup : s.g.relation(0).tuples()) {
      drift[tup[0]] += marked[k].GetElem(tup[1]) - s.weights.GetElem(tup[1]);
    }
    Weight worst = 0;
    for (Weight d : drift) worst = std::max<Weight>(worst, d < 0 ? -d : d);
    if (worst > budget) {
      problems.push_back("copy " + std::to_string(k) + ": query drift " + std::to_string(worst) +
                         " exceeds bound " + std::to_string(budget));
    }
  }
  for (const std::string& p : problems) {
    out.detail += (out.detail.empty() ? "" : "; ") + p;
  }
  out.ok = problems.empty();
  return out;
}

LeakOutcome LeakWorkload::Read(Tracer& t, bool wrong_copy) {
  State& s = *s_;
  const size_t k = s.next_read++ % kCopies;
  const size_t expected = wrong_copy ? (k + 1) % kCopies : k;
  const AnswerServer& suspect = *s.suspects[k].server;
  LeakOutcome out;
  FingerprintObservation obs;
  TraceResult traced = TimedOp(t, "op.detect", out, [&] {
    obs = Traced(t, "coding.observe", [&] { return s.fp->Observe(s.weights, suspect).ValueOrDie(); });
    return Traced(t, "coding.trace_many", [&] { return s.fp->TraceMany(obs, kCandidates); });
  });
  CountDetection(t, obs.channel);
  size_t members = 0, innocents = 0;
  for (const Accusation& a : traced.accused) {
    const std::vector<uint64_t>& l = s.leakers[expected];
    (std::find(l.begin(), l.end(), a.recipient) != l.end() ? members : innocents) += 1;
  }
  t.Count("coding.candidates", static_cast<double>(traced.candidates));
  t.Count("coding.pruned", static_cast<double>(traced.pruned));
  t.Count("coding.accused", static_cast<double>(traced.accused.size()));
  t.Count("coding.innocents_accused", static_cast<double>(innocents));
  if (traced.kind != TraceVerdictKind::kTraced || members == 0 || innocents != 0) {
    out.ok = false;
    out.detail = "trace accused " + std::to_string(members) + " leaker(s) and " +
                 std::to_string(innocents) + " innocent(s)";
  }
  return out;
}

}  // namespace perfbench
