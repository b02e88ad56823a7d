// Pair markings (Section 3): the (+1, -1) trick. A pair of active weighted
// elements carries one mark bit; its contribution to a parameter a is
// [b in W_a] - [b' in W_a], in {-1, 0, +1}, and is 0 exactly when the pair
// cancels on that query. The per-parameter *cost* sums |contribution| over
// pairs — an upper bound on the distortion of every possible mark, which is
// what the epsilon-goodness check verifies (a deterministic strengthening of
// Proposition 2, see DESIGN.md).
#ifndef QPWM_CORE_PAIRS_H_
#define QPWM_CORE_PAIRS_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/structure/weighted.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// One mark-carrying pair: indices into the QueryIndex active-element table.
struct WeightPair {
  uint32_t plus;   // receives +1 when the bit is set
  uint32_t minus;  // receives -1 when the bit is set
};

/// One pair's reading through the suspect server. A pair whose elements no
/// longer appear in the suspect's answers (deleted tuple, dropped subtree,
/// shipped subset), or appear twice with different weights, is an
/// *erasure*: the detector must abstain on it rather than fabricate a
/// 0-delta vote or let a forged row pick the weight.
struct PairObservation {
  Weight delta = 0;     // (w*+ - w+) - (w*- - w-); meaningless when erased
  bool erased = false;  // element(s) missing or contradicted in the answers
};

/// Reusable per-worker buffers for erasure-aware pair reading
/// (PairCarrier::Observe). One instance per worker — see util/parallel.h
/// ScratchPool — makes a steady-state detection pass allocation-free: the
/// flat answer batch, the stamp/staging tables and the observation list all
/// keep their capacity across suspects.
///
/// `epoch` strictly increases for the lifetime of the scratch and is never
/// reset, so a stamp written while reading one suspect can never alias a
/// staging pass over a later suspect.
struct DetectScratch {
  FlatAnswers answers;
  std::vector<uint64_t> stamp;       // per key: 2 * epoch (+1 on conflict)
  std::vector<Weight> row_weight;    // staged weight, valid iff stamp matches
  std::vector<Weight> read_weight;   // per read slot (2 per pair)
  std::vector<char> read_found;
  std::vector<int64_t> row_keys;     // per answer row (PairCarrier::RowKeys)
  Tuple row_tuple;                   // reused buffer for PairCarrier::RowKeys
  std::vector<PairObservation> observations;
  uint64_t epoch = 0;
};

/// How a set bit is written into a pair's weights.
enum class PairEncoding {
  /// bit 1 -> (+1, -1); bit 0 -> no change (the paper's encoding).
  kOnOff,
  /// bit 1 -> (+1, -1); bit 0 -> (-1, +1). Antipodal; doubles the detection
  /// margin, used under the Khanna-Zane adversarial transform.
  kAntipodal,
};

/// A fixed sequence of pairs over one QueryIndex, with contribution and cost
/// accounting.
class PairMarking {
 public:
  PairMarking(const QueryIndex& index, std::vector<WeightPair> pairs);

  const QueryIndex& index() const { return *index_; }
  const std::vector<WeightPair>& pairs() const { return pairs_; }
  size_t size() const { return pairs_.size(); }

  /// Contribution of pair `i` to parameter `a`: [b in W_a] - [b' in W_a].
  int Contribution(size_t pair_idx, size_t param_idx) const;

  /// cost(a) = sum_i |contribution_i(a)| — the worst-case |f drift| of any
  /// mark at parameter a (for either encoding).
  std::vector<uint32_t> CostPerParam() const;

  /// max_a cost(a). A pair set is epsilon-good iff MaxCost() <= ceil(1/eps).
  uint32_t MaxCost() const;

  /// Writes `mark` (one bit per pair) into `weights` in place.
  void Apply(const BitVec& mark, WeightMap& weights,
             PairEncoding encoding = PairEncoding::kOnOff) const;

  /// Restriction to a subset of the pairs (selection indices, kept in order).
  PairMarking Subset(const std::vector<uint32_t>& selection) const;

 private:
  const QueryIndex* index_;
  std::vector<WeightPair> pairs_;
};

/// How a planned scheme reads its pairs back, fixed at plan time (it depends
/// only on the pairs, never on the suspect): the distinct witness parameters
/// in first-use order and, per witness, the (read slot, key) reads served
/// through it, flattened CSR-style. Slot 2i reads pair i's plus element,
/// 2i+1 its minus element; the key names that element in the scheme's key
/// space (see PairCarrier::RowKeys). A slot without a read stays an erasure.
struct WitnessPlan {
  // qpwm-lint: allow(legacy-tuple-vector) — witness params interned once at Plan time
  std::vector<Tuple> params;
  std::vector<uint32_t> read_offsets{0};             // per witness: begin in reads
  std::vector<std::pair<uint32_t, uint32_t>> reads;  // (read slot, key)

  /// Groups reads added in slot order by witness, in first-use order.
  /// `witness_id` names the witness parameter: equal ids for equal
  /// parameters (a domain index, a node id).
  class Builder {
   public:
    void Add(uint32_t witness_id, const Tuple& witness, uint32_t slot,
             uint32_t key);
    WitnessPlan Finish();

   private:
    std::unordered_map<uint32_t, uint32_t> group_of_;  // witness id -> group
    // qpwm-lint: allow(legacy-tuple-vector) — witness params interned once at Plan time
    std::vector<Tuple> params_;
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> groups_;
  };
};

/// A planned base scheme as the detector sees it: a fixed sequence of pairs,
/// each carrying one bit, read back through the suspect's query answers.
/// The local scheme (Theorem 3) and the tree scheme (Theorems 4/5) both are
/// carriers. A scheme supplies its pairs' writer, its witness plan, the row
/// -> key mapping of its answers and the weight of a key; the one
/// witness-resolve kernel (Observe) is shared.
class PairCarrier {
 public:
  virtual ~PairCarrier() = default;

  virtual size_t NumPairs() const = 0;
  /// Writes `mark` (one bit per pair) into `weights` in place.
  virtual void Apply(const BitVec& mark, WeightMap& weights,
                     PairEncoding encoding) const = 0;
  virtual const WitnessPlan& witness_plan() const = 0;
  /// Keys are in [0, NumKeys()).
  virtual size_t NumKeys() const = 0;
  /// Sets keys[r] to the key of answer row r's element tuple, or to -1 when
  /// the row names no element the plan could read (an inserted fresh tuple,
  /// an inactive element). One call maps a whole batch, so the per-row work
  /// inlines. `scratch` is a reusable tuple buffer.
  virtual void RowKeys(const FlatAnswers& answers, std::vector<int64_t>& keys,
                       Tuple& scratch) const = 0;
  /// Weight of the element named by `key` under `weights`.
  virtual Weight KeyWeight(const WeightMap& weights, uint32_t key) const = 0;

  /// The owner's original weight per read slot. Depends only on the owner's
  /// weights, so a detection run computes it once and shares it across all
  /// suspects.
  std::vector<Weight> SlotOriginals(const WeightMap& original) const;

  /// Erasure-aware per-pair reading: answers every witness of the plan in
  /// one AnswerAllFlat round trip, resolves each witness's rows to keys and
  /// fills scratch.observations (valid until the next call on that scratch).
  /// A pair whose element is missing from its witness answer (deleted tuple,
  /// dropped subtree, shipped subset) comes back `erased`. So does a pair
  /// whose witness answer holds two rows for one element with different
  /// weights: a forged duplicate must not get to choose the weight read.
  /// Equal duplicates read normally. Allocation-free once the scratch is
  /// warm.
  const std::vector<PairObservation>& Observe(
      const std::vector<Weight>& slot_originals, const AnswerServer& suspect,
      DetectScratch& scratch) const;

  /// Observe with a fresh scratch, for one-off reads.
  std::vector<PairObservation> ObservePairs(const WeightMap& original,
                                            const AnswerServer& suspect) const;
};

/// The paper's non-adversarial detector D over one pair per bit: any erased
/// pair fails the read with kDetectionFailed (structure tampered); otherwise
/// bit i is delta_i >= 1 under kOnOff (clean deltas +2 / 0) and delta_i >= 0
/// under kAntipodal (+2 / -2).
[[nodiscard]] Result<BitVec> DecodeStrict(
    const std::vector<PairObservation>& observations, PairEncoding encoding);

}  // namespace qpwm

#endif  // QPWM_CORE_PAIRS_H_
