#include "qpwm/core/tree_scheme.h"

#include <algorithm>

#include "qpwm/tree/query.h"
#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

namespace qpwm {

AnswerSet HonestTreeServer::Answer(const Tuple& params) const {
  QPWM_CHECK_EQ(params.size(), param_arity_);
  NodeId a = param_arity_ == 1 ? params[0] : 0;
  AnswerSet out;
  for (NodeId b : eval_.Evaluate(a)) {
    out.push_back({Tuple{b}, weights_.GetElem(b)});
  }
  return out;
}

Result<TreeScheme> TreeScheme::Plan(const BinaryTree& t,
                                    const std::vector<uint32_t>& labels,
                                    uint32_t base_count, const Dta& dta,
                                    uint32_t param_arity,
                                    const TreeSchemeOptions& options) {
  if (param_arity > 1) {
    return Status::InvalidArgument("tree scheme supports parameter arity 0 or 1");
  }
  const uint32_t expected_tracks = param_arity + 1;
  if (dta.alphabet_size() != base_count << expected_tracks) {
    return Status::InvalidArgument(
        "automaton alphabet does not match base alphabet x pebble tracks");
  }

  TreeScheme scheme;
  scheme.t_ = &t;
  scheme.labels_ = &labels;
  scheme.base_count_ = base_count;
  scheme.dta_ = &dta;
  scheme.param_arity_ = param_arity;
  scheme.options_ = options;

  // Active weighted elements: W = union over a of W_a. Pair candidates are
  // restricted to W so every hidden bit stays readable through answers.
  std::vector<bool> active(t.size(), false);
  {
    Dta exists_a = param_arity == 1 ? ProjectParamTrack(dta, base_count) : dta;
    for (NodeId b : EvaluateWa(t, labels, base_count, exists_a, 0, 0)) {
      active[b] = true;
    }
  }

  DecompositionOptions dopts;
  dopts.shuffle_seed = options.key.Derive(0xDEC0).k0;
  dopts.min_region_size = options.min_region_size;
  dopts.max_region_size = options.max_region_size;
  scheme.regions_ = FindMarkRegions(t, labels, base_count, dta, param_arity, dopts,
                                    &scheme.stats_, &active);

  // Witness discovery. Fast path: precompute the answer bitmaps of a small
  // shared pool of candidate parameters (root + keyed-random picks); most
  // pairs find a witness there in O(1). Stragglers take the smallest
  // parameter outside their region from the exact reverse run
  // (track-swapped automaton: every parameter containing b_plus). By
  // neutrality, a witness for b_plus outside the region covers b_minus.
  std::vector<NodeId> region_of(t.size(), kNoNode);
  for (size_t i = 0; i < scheme.regions_.size(); ++i) {
    for (NodeId w : scheme.regions_[i].nodes) region_of[w] = static_cast<NodeId>(i);
  }

  if (param_arity == 0) {
    for (const MarkRegion& region : scheme.regions_) {
      // Single (empty) parameter; the active filter already guarantees
      // membership, but verify defensively.
      if (region.paired() && MemberWa(t, labels, base_count, dta, 0, 0, region.b_plus)) {
        scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{}});
      }
    }
    scheme.BuildWitnessPlan();
    return scheme;
  }

  using Member = std::pair<NodeId, std::vector<bool>>;  // (parameter, W_a bitmap)
  const WaEvaluator forward(t, labels, base_count, dta, 1);
  auto member_of = [&](NodeId a) {
    Member out{a, std::vector<bool>(t.size(), false)};
    for (NodeId b : forward.Evaluate(a)) out.second[b] = true;
    return out;
  };
  std::vector<Member> witness_pool;
  {
    Rng witness_rng(options.key.Derive(0x317).k0);
    std::vector<NodeId> candidates{t.root()};
    for (size_t i = 0; i + 1 < options.witness_attempts; ++i) {
      candidates.push_back(static_cast<NodeId>(witness_rng.Below(t.size())));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    // One automaton run per candidate parameter, computed in parallel; the
    // pool keeps the candidates' sorted order, so witness probing below is
    // deterministic.
    witness_pool = ParallelMap<Member>(candidates.size(),
                                       [&](size_t i) { return member_of(candidates[i]); });
  }

  // Every straggler's witness is learned with its answer bitmap. A later
  // straggler whose b_plus a learned witness (outside its region) covers
  // needs the reverse run only below that witness: the smallest parameter
  // containing b_plus is at most it. The witness chosen is the same as
  // with a full reverse run.
  const Dta swapped = SwapPebbleTracks(dta, base_count);
  const WaEvaluator reverse(t, labels, base_count, swapped, 1);
  std::vector<Member> learned;
  WitnessSearchStats& counts = scheme.witness_stats_;
  for (size_t region_idx = 0; region_idx < scheme.regions_.size(); ++region_idx) {
    const MarkRegion& region = scheme.regions_[region_idx];
    if (!region.paired()) continue;
    auto outside = [&](NodeId a) { return region_of[a] != static_cast<NodeId>(region_idx); };

    auto hit = std::find_if(witness_pool.begin(), witness_pool.end(), [&](const Member& m) {
      return outside(m.first) && m.second[region.b_plus];
    });
    if (hit != witness_pool.end()) {
      ++counts.pool_hits;
      scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{hit->first}});
      continue;
    }

    const Member* bound = nullptr;
    for (const Member& m : learned) {
      if (outside(m.first) && m.second[region.b_plus] &&
          (bound == nullptr || m.first < bound->first)) {
        bound = &m;
      }
    }
    ++(bound != nullptr ? counts.learned_hits : counts.fallbacks);
    NodeId witness = bound != nullptr ? bound->first : kNoNode;
    for (NodeId a : reverse.EvaluateBelow(region.b_plus, witness)) {
      if (outside(a)) {
        witness = a;
        break;
      }
    }
    if (witness == kNoNode) continue;
    if (bound != nullptr && witness == bound->first) {
      QPWM_CHECK(bound->second[region.b_minus]);
    } else {
      QPWM_CHECK(MemberWa(t, labels, base_count, dta, 1, witness, region.b_minus));
      learned.push_back(member_of(witness));
    }
    scheme.pairs_.push_back({region.b_plus, region.b_minus, Tuple{witness}});
  }
  scheme.BuildWitnessPlan();
  return scheme;
}

void TreeScheme::BuildWitnessPlan() {
  // A witness is the empty tuple (parameter arity 0) or one node.
  WitnessPlan::Builder plan;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const DetectablePair& pair = pairs_[i];
    const uint32_t id = pair.witness.empty() ? 0 : pair.witness[0];
    plan.Add(id, pair.witness, static_cast<uint32_t>(2 * i), pair.b_plus);
    plan.Add(id, pair.witness, static_cast<uint32_t>(2 * i + 1), pair.b_minus);
  }
  witness_plan_ = plan.Finish();
}

void TreeScheme::RowKeys(const FlatAnswers& answers, std::vector<int64_t>& keys,
                         Tuple& /*scratch*/) const {
  // Rows beyond the tree (inserted fresh nodes) name no pair node.
  keys.resize(answers.num_rows());
  for (size_t r = 0; r < keys.size(); ++r) {
    const uint32_t b = answers.elem_offsets[r];
    const bool node = answers.elem_offsets[r + 1] - b == 1 &&
                      answers.elems[b] < t_->size();
    keys[r] = node ? int64_t{answers.elems[b]} : -1;
  }
}

WeightMap TreeScheme::Embed(const WeightMap& original, const BitVec& mark) const {
  WeightMap out = original;
  Apply(mark, out, options_.encoding);
  return out;
}

void TreeScheme::Apply(const BitVec& mark, WeightMap& weights,
                       PairEncoding encoding) const {
  QPWM_CHECK_EQ(mark.size(), pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (mark.Get(i)) {
      weights.AddElem(pairs_[i].b_plus, +1);
      weights.AddElem(pairs_[i].b_minus, -1);
    } else if (encoding == PairEncoding::kAntipodal) {
      weights.AddElem(pairs_[i].b_plus, -1);
      weights.AddElem(pairs_[i].b_minus, +1);
    }
  }
}

Result<BitVec> TreeScheme::Detect(const WeightMap& original,
                                  const AnswerServer& suspect) const {
  return DecodeStrict(ObservePairs(original, suspect), options_.encoding);
}

}  // namespace qpwm
