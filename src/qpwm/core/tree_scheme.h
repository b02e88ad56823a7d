// The watermarking scheme of Theorems 4/5: automaton-definable (hence
// MSO-definable, via CompileMso) queries on weighted trees.
//
// Planning finds Lemma 3 regions with neutral pairs (FindMarkRegions), then
// locates, for every pair, a *witness parameter* outside the region whose
// answer set contains the pair — the detector reads the pair's suspect
// weights through that witness query. Pairs without a witness are dropped
// (their bits would be invisible through answers). The realized global
// distortion of every mark is at most 1: pairs cancel exactly for parameters
// outside their region, and a parameter inside one region meets only that
// region's pair.
#ifndef QPWM_CORE_TREE_SCHEME_H_
#define QPWM_CORE_TREE_SCHEME_H_

#include <cstdint>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/core/pairs.h"
#include "qpwm/structure/weighted.h"
#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"
#include "qpwm/tree/decomposition.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/status.h"
#include "qpwm/util/thread_annotations.h"

namespace qpwm {

struct TreeSchemeOptions {
  /// Owner's secret key (candidate shuffles, witness probing order).
  PrfKey key;
  /// Forwarded to FindMarkRegions (0 = defaults).
  size_t min_region_size = 0;
  size_t max_region_size = 0;
  /// Random parameters probed (beyond the root and region neighbors) when
  /// searching a witness for a pair.
  size_t witness_attempts = 16;
  PairEncoding encoding = PairEncoding::kOnOff;
};

/// A server honestly answering the automaton query over a weighted tree.
class HonestTreeServer : public AnswerServer {
 public:
  HonestTreeServer(const BinaryTree& t, const std::vector<uint32_t>& labels,
                   uint32_t base_count, const Dta& dta, uint32_t param_arity,
                   WeightMap weights)
      : eval_(t, labels, base_count, dta, param_arity),
        param_arity_(param_arity),
        weights_(std::move(weights)) {}

  AnswerSet Answer(const Tuple& params) const override;

 private:
  WaEvaluator eval_;
  uint32_t param_arity_;
  WeightMap weights_;
};

/// How TreeScheme::Plan found its pairs' witnesses.
struct WitnessSearchStats {
  /// Regions whose witness came from the keyed random pool.
  size_t pool_hits = 0;
  /// Regions whose reverse run stopped below a witness learned earlier.
  size_t learned_hits = 0;
  /// Regions that ran the reverse automaton over every parameter.
  size_t fallbacks = 0;
};

/// Planned marker/detector for one (tree, automaton query) instance.
class TreeScheme : public PairCarrier {
 public:
  /// `dta` track convention: track 0 = parameter (if param_arity == 1), next
  /// track = result node. The tree, labels and automaton are captured by
  /// reference and must outlive the scheme.
  [[nodiscard]] static Result<TreeScheme> Plan(const BinaryTree& t,
                                 const std::vector<uint32_t>& labels,
                                 uint32_t base_count, const Dta& dta,
                                 uint32_t param_arity,
                                 const TreeSchemeOptions& options);

  /// Hidden bits: pairs with a detection witness.
  size_t CapacityBits() const { return pairs_.size(); }
  /// Structural bound on max_a |f(a) drift| for every mark.
  Weight DistortionBound() const { return pairs_.empty() ? 0 : 1; }

  size_t RegionsPaired() const { return stats_.paired; }
  size_t RegionsUnpaired() const { return stats_.unpaired; }
  const DecompositionStats& stats() const { return stats_; }
  const WitnessSearchStats& witness_stats() const { return witness_stats_; }
  const std::vector<MarkRegion>& regions() const { return regions_; }

  /// Marker: 1-local distortion embedding an l-bit mark.
  WeightMap Embed(const WeightMap& original, const BitVec& mark) const;

  /// Detector (non-adversarial): recovers the mark from suspect answers.
  /// Any erased pair fails with kDetectionFailed (see DecodeStrict).
  [[nodiscard]] Result<BitVec> Detect(const WeightMap& original, const AnswerServer& suspect) const;

  // PairCarrier: keys are node ids; both nodes of a pair are read through
  // the pair's witness parameter.
  size_t NumPairs() const override { return pairs_.size(); }
  void Apply(const BitVec& mark, WeightMap& weights,
             PairEncoding encoding) const override;
  const WitnessPlan& witness_plan() const override { return witness_plan_; }
  size_t NumKeys() const override { return t_->size(); }
  void RowKeys(const FlatAnswers& answers, std::vector<int64_t>& keys,
               Tuple& scratch) const override;
  Weight KeyWeight(const WeightMap& weights, uint32_t key) const override {
    return weights.GetElem(key);
  }

 private:
  struct DetectablePair {
    NodeId b_plus;
    NodeId b_minus;
    Tuple witness;  // parameter whose answers contain both pair nodes
  };

  void BuildWitnessPlan();

  TreeScheme() = default;

  const BinaryTree* t_ = nullptr;
  const std::vector<uint32_t>* labels_ = nullptr;
  uint32_t base_count_ = 0;
  const Dta* dta_ = nullptr;
  uint32_t param_arity_ = 0;
  TreeSchemeOptions options_;
  std::vector<MarkRegion> regions_;
  DecompositionStats stats_;
  WitnessSearchStats witness_stats_;
  std::vector<DetectablePair> pairs_;
  // Read slots index into pairs_'s witness layout; valid only while pairs_
  // (declared above, same object) is alive and unmodified after Plan().
  WitnessPlan witness_plan_ QPWM_VIEW_OF(pairs_);
};

}  // namespace qpwm

#endif  // QPWM_CORE_TREE_SCHEME_H_
