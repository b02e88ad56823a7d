// Reference implementation of the witness-resolve kernel
// (PairCarrier::Observe), one pair element at a time: every read asks its
// witness parameter through its own Answer() round trip, scans the returned
// AnswerSet linearly for the element's tuple, and applies the duplicate rule
// row by row (two rows for the element with different weights make the read
// an erasure; equal duplicates read normally). Only the witness plan — fixed
// at plan time, never a function of the suspect — is shared with the kernel;
// the flat batch, the row -> key mapping, the epoch stamps and the slot
// layout are all re-derived here. Tests and bench_detect compare the kernel
// against it observation for observation.
#ifndef QPWM_TESTS_DETECT_ORACLE_H_
#define QPWM_TESTS_DETECT_ORACLE_H_

#include <optional>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/pairs.h"
#include "qpwm/core/tree_scheme.h"

namespace qpwm::oracle {

/// Pair observations of `carrier` against `suspect`. `key_tuple(key)` is the
/// element tuple a key of the carrier's key space stands for.
template <typename KeyTuple>
std::vector<PairObservation> ObservePairs(const PairCarrier& carrier,
                                          const WeightMap& original,
                                          const AnswerServer& suspect,
                                          KeyTuple key_tuple) {
  const WitnessPlan& plan = carrier.witness_plan();
  const size_t num_pairs = carrier.NumPairs();
  std::vector<std::optional<Weight>> read(2 * num_pairs);
  std::vector<Weight> orig(2 * num_pairs, 0);
  for (size_t s = 0; s < plan.params.size(); ++s) {
    for (uint32_t i = plan.read_offsets[s]; i < plan.read_offsets[s + 1]; ++i) {
      const auto [slot, key] = plan.reads[i];
      const Tuple element = key_tuple(key);
      orig[slot] = original.Get(element);
      std::optional<Weight> weight;
      bool conflict = false;
      for (const AnswerRow& row : suspect.Answer(plan.params[s])) {
        if (row.element != element) continue;
        conflict |= weight.has_value() && *weight != row.weight;
        weight = row.weight;
      }
      if (!conflict) read[slot] = weight;
    }
  }
  std::vector<PairObservation> out(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    const std::optional<Weight>& plus = read[2 * i];
    const std::optional<Weight>& minus = read[2 * i + 1];
    if (!plus.has_value() || !minus.has_value()) {
      out[i].erased = true;
    } else {
      out[i].delta = (*plus - orig[2 * i]) - (*minus - orig[2 * i + 1]);
    }
  }
  return out;
}

/// Local scheme: keys are QueryIndex active ids.
inline std::vector<PairObservation> ObservePairs(const LocalScheme& scheme,
                                                 const WeightMap& original,
                                                 const AnswerServer& suspect) {
  const QueryIndex& index = scheme.index();
  return ObservePairs(static_cast<const PairCarrier&>(scheme), original, suspect,
                      [&](uint32_t key) { return index.active_element(key); });
}

/// Tree scheme: keys are node ids.
inline std::vector<PairObservation> ObservePairs(const TreeScheme& scheme,
                                                 const WeightMap& original,
                                                 const AnswerServer& suspect) {
  return ObservePairs(static_cast<const PairCarrier&>(scheme), original, suspect,
                      [](uint32_t key) { return Tuple{key}; });
}

}  // namespace qpwm::oracle

#endif  // QPWM_TESTS_DETECT_ORACLE_H_
