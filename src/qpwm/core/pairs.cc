#include "qpwm/core/pairs.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {
namespace {

// Below this many pairs the parallel dispatch costs more than it saves: the
// per-pair work is two sorted-list merges over bounded-degree incidence
// lists, so a dispatch (worker wakeup + join) only amortizes on large
// markings. Measured on bench_plan_scale's instance; the selection loop calls
// this once per subsample trial, so a low threshold multiplies the overhead.
constexpr size_t kParallelCostThreshold = 8192;

}  // namespace

PairMarking::PairMarking(const QueryIndex& index, std::vector<WeightPair> pairs)
    : index_(&index), pairs_(std::move(pairs)) {
  for (const WeightPair& p : pairs_) {
    QPWM_CHECK_LT(p.plus, index.num_active());
    QPWM_CHECK_LT(p.minus, index.num_active());
    QPWM_CHECK_NE(p.plus, p.minus);
  }
}

int PairMarking::Contribution(size_t pair_idx, size_t param_idx) const {
  const WeightPair& p = pairs_[pair_idx];
  int c = 0;
  if (index_->Contains(param_idx, p.plus)) c += 1;
  if (index_->Contains(param_idx, p.minus)) c -= 1;
  return c;
}

std::vector<uint32_t> PairMarking::CostPerParam() const {
  // Walk the inverse index instead of the (pair x param) product: each pair
  // only touches the parameters containing one of its two elements.
  auto accumulate = [this](size_t begin, size_t end, std::vector<uint32_t>& cost) {
    for (size_t pi = begin; pi < end; ++pi) {
      const WeightPair& p = pairs_[pi];
      const auto& in_plus = index_->ParamsContaining(p.plus);
      const auto& in_minus = index_->ParamsContaining(p.minus);
      // Symmetric difference of the two sorted parameter lists.
      size_t i = 0, j = 0;
      while (i < in_plus.size() || j < in_minus.size()) {
        if (j == in_minus.size() || (i < in_plus.size() && in_plus[i] < in_minus[j])) {
          ++cost[in_plus[i++]];
        } else if (i == in_plus.size() || in_minus[j] < in_plus[i]) {
          ++cost[in_minus[j++]];
        } else {  // Both contain this parameter: contributions cancel.
          ++i;
          ++j;
        }
      }
    }
  };

  const size_t num_params = index_->num_params();
  if (pairs_.size() < kParallelCostThreshold || ParallelThreads() == 1) {
    std::vector<uint32_t> cost(num_params, 0);
    accumulate(0, pairs_.size(), cost);
    return cost;
  }

  // Per-block partial counts, summed in block order. Integer addition is
  // associative and commutative, so the totals are identical to the serial
  // accumulation for any thread count or block layout.
  std::vector<std::vector<uint32_t>> partial =
      ParallelBlocks<std::vector<uint32_t>>(pairs_.size(), [&](size_t begin, size_t end) {
        std::vector<uint32_t> cost(num_params, 0);
        accumulate(begin, end, cost);
        return cost;
      });
  std::vector<uint32_t> cost(num_params, 0);
  for (const std::vector<uint32_t>& block : partial) {
    for (size_t a = 0; a < num_params; ++a) cost[a] += block[a];
  }
  return cost;
}

uint32_t PairMarking::MaxCost() const {
  uint32_t worst = 0;
  for (uint32_t c : CostPerParam()) worst = std::max(worst, c);
  return worst;
}

void PairMarking::Apply(const BitVec& mark, WeightMap& weights,
                        PairEncoding encoding) const {
  QPWM_CHECK_EQ(mark.size(), pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const WeightPair& p = pairs_[i];
    if (mark.Get(i)) {
      weights.Add(index_->active_element(p.plus), +1);
      weights.Add(index_->active_element(p.minus), -1);
    } else if (encoding == PairEncoding::kAntipodal) {
      weights.Add(index_->active_element(p.plus), -1);
      weights.Add(index_->active_element(p.minus), +1);
    }
  }
}

PairMarking PairMarking::Subset(const std::vector<uint32_t>& selection) const {
  std::vector<WeightPair> subset;
  subset.reserve(selection.size());
  for (uint32_t i : selection) {
    QPWM_CHECK_LT(i, pairs_.size());
    subset.push_back(pairs_[i]);
  }
  return PairMarking(*index_, std::move(subset));
}

void WitnessPlan::Builder::Add(uint32_t witness_id, const Tuple& witness,
                               uint32_t slot, uint32_t key) {
  auto [it, inserted] =
      group_of_.try_emplace(witness_id, static_cast<uint32_t>(params_.size()));
  if (inserted) {
    params_.push_back(witness);
    groups_.emplace_back();
  }
  groups_[it->second].push_back({slot, key});
}

WitnessPlan WitnessPlan::Builder::Finish() {
  WitnessPlan plan;
  plan.params = std::move(params_);
  plan.read_offsets.reserve(groups_.size() + 1);
  for (const auto& group : groups_) {
    plan.reads.insert(plan.reads.end(), group.begin(), group.end());
    plan.read_offsets.push_back(static_cast<uint32_t>(plan.reads.size()));
  }
  return plan;
}

std::vector<Weight> PairCarrier::SlotOriginals(const WeightMap& original) const {
  std::vector<Weight> out(2 * NumPairs(), 0);
  for (const auto& [slot, key] : witness_plan().reads) {
    out[slot] = KeyWeight(original, key);
  }
  return out;
}

const std::vector<PairObservation>& PairCarrier::Observe(
    const std::vector<Weight>& slot_originals, const AnswerServer& suspect,
    DetectScratch& sc) const {
  const WitnessPlan& plan = witness_plan();
  const size_t num_pairs = NumPairs();
  QPWM_CHECK_EQ(slot_originals.size(), 2 * num_pairs);

  // One round trip for every distinct witness (pairs cluster around shared
  // witnesses, so these are far fewer than the reads), then per witness:
  // stage its rows in an epoch-stamped flat table keyed by key, and resolve
  // its reads against it. No per-row allocation, O(1) per row and per read.
  suspect.AnswerAllFlat(plan.params, sc.answers);
  QPWM_CHECK_EQ(sc.answers.num_params(), plan.params.size());
  RowKeys(sc.answers, sc.row_keys, sc.row_tuple);
  if (sc.stamp.size() != NumKeys()) {
    sc.stamp.assign(NumKeys(), 0);
    sc.row_weight.assign(NumKeys(), 0);
  }
  sc.read_weight.assign(2 * num_pairs, 0);
  sc.read_found.assign(2 * num_pairs, 0);
  for (size_t s = 0; s < plan.params.size(); ++s) {
    // stamp == seen: one weight staged for the key; stamp == conflict: rows
    // for the key disagree, so its reads stay unfound (erased).
    const uint64_t seen = 2 * ++sc.epoch;
    const uint64_t conflict = seen + 1;
    for (uint32_t r = sc.answers.param_offsets[s];
         r < sc.answers.param_offsets[s + 1]; ++r) {
      const int64_t key = sc.row_keys[r];
      if (key < 0) continue;
      const Weight w = sc.answers.weights[r];
      uint64_t& stamp = sc.stamp[key];
      if (stamp < seen) {
        stamp = seen;
        sc.row_weight[key] = w;
      } else if (sc.row_weight[key] != w) {
        stamp = conflict;
      }
    }
    for (uint32_t i = plan.read_offsets[s]; i < plan.read_offsets[s + 1]; ++i) {
      const auto& [slot, key] = plan.reads[i];
      if (sc.stamp[key] == seen) {
        sc.read_weight[slot] = sc.row_weight[key];
        sc.read_found[slot] = 1;
      }
    }
  }

  sc.observations.assign(num_pairs, PairObservation{});
  for (size_t i = 0; i < num_pairs; ++i) {
    PairObservation& obs = sc.observations[i];
    if (!sc.read_found[2 * i] || !sc.read_found[2 * i + 1]) {
      obs.erased = true;
      continue;
    }
    const Weight d_plus = sc.read_weight[2 * i] - slot_originals[2 * i];
    const Weight d_minus = sc.read_weight[2 * i + 1] - slot_originals[2 * i + 1];
    obs.delta = d_plus - d_minus;
  }
  return sc.observations;
}

std::vector<PairObservation> PairCarrier::ObservePairs(
    const WeightMap& original, const AnswerServer& suspect) const {
  DetectScratch scratch;
  return Observe(SlotOriginals(original), suspect, scratch);
}

Result<BitVec> DecodeStrict(const std::vector<PairObservation>& observations,
                            PairEncoding encoding) {
  const Weight threshold = encoding == PairEncoding::kOnOff ? 1 : 0;
  BitVec mark(observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    if (observations[i].erased) {
      return Status::DetectionFailed(
          "suspect answers miss or contradict a pair element (structure "
          "tampered)");
    }
    mark.Set(i, observations[i].delta >= threshold);
  }
  return mark;
}

}  // namespace qpwm
