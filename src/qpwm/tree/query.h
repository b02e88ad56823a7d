// Automaton-defined parametric queries on weighted trees (Section 4):
// W_a = B(a, T) = { b : B accepts T_ab }.
//
// WaEvaluator computes one whole answer set with a two-pass context DP
// (bottom-up states with the parameter pebble placed, then top-down
// acceptance contexts), instead of the naive O(n^2) reruns. Contexts are
// interned state sets and a child's context is memoized per call, so a pass
// costs O(n) lookups plus O(m) per distinct context step, not O(n * m).
// Pebble track convention: track 0 = parameter a (if any), track 1 (or 0
// when there is no parameter) = result b.
#ifndef QPWM_TREE_QUERY_H_
#define QPWM_TREE_QUERY_H_

#include <memory>
#include <vector>

#include "qpwm/logic/query.h"
#include "qpwm/structure/structure.h"
#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"

namespace qpwm {

/// Membership test b in W_a: one run over T_ab. `param_arity` is 0 or 1;
/// with 0, `a` is ignored and the automaton has a single (result) track.
bool MemberWa(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
              uint32_t base_count, const Dta& dta, uint32_t param_arity, NodeId a,
              NodeId b);

/// Answer sets W_a of one automaton query over one tree, for many
/// parameters. Construction runs the pebble-free bottom-up pass once; each
/// call then reruns the bottom-up states only where the parameter pebble
/// changes them (on a's ancestors), and fills the top-down contexts with a
/// per-call memo of (parent context, sibling state, symbol class, side) ->
/// child context. Calls are const and keep their scratch to themselves, so
/// one evaluator serves concurrent callers. The tree, labels and automaton
/// are captured by reference and must outlive the evaluator.
class WaEvaluator {
 public:
  WaEvaluator(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
              uint32_t base_count, const Dta& dta, uint32_t param_arity);

  /// W_a (sorted node ids). `a` places no pebble when param_arity is 0 or
  /// when it is not a node of the tree.
  std::vector<NodeId> Evaluate(NodeId a) const;

  /// The members of W_a below `limit` (sorted). When every parent's id is
  /// below its children's (the XML encoding and the tree generators number
  /// nodes so), the context pass visits only ids below `limit`.
  std::vector<NodeId> EvaluateBelow(NodeId a, NodeId limit) const;

 private:
  uint32_t SymbolClass(NodeId v, bool a_here, bool b_here) const;

  const BinaryTree* t_;
  const std::vector<uint32_t>* labels_;
  uint32_t base_count_;
  const Dta* dta_;
  uint32_t param_arity_;
  std::vector<State> free_;         // pebble-free bottom-up state per node
  std::vector<uint32_t> free_cls_;  // class of the pebble-free symbol
  std::vector<State> b_state_;      // state with the result pebble only
  bool parents_first_ = true;       // every parent id < its children's ids
};

/// Full answer set W_a (sorted node ids): one WaEvaluator call. Build a
/// WaEvaluator instead when evaluating several parameters.
std::vector<NodeId> EvaluateWa(const BinaryTree& t,
                               const std::vector<uint32_t>& base_labels,
                               uint32_t base_count, const Dta& dta,
                               uint32_t param_arity, NodeId a);

/// Existentially projects the parameter track of a 2-track query automaton:
/// the result accepts T_b iff b is in W_a for *some* a — the active-element
/// test of Section 1, as a single 1-track automaton.
Dta ProjectParamTrack(const Dta& dta, uint32_t base_count);

/// Swaps the parameter and result pebble tracks: running the result with
/// the roles reversed enumerates, for a fixed b, every parameter a whose
/// answer set contains b (exact witness discovery for the detector).
Dta SwapPebbleTracks(const Dta& dta, uint32_t base_count);

/// A bare {S1, S2} structure with the tree's nodes as universe, so the
/// generic core machinery (QueryIndex, PairMarking, distortion checks,
/// attacks) runs unchanged on trees. LEQ is intentionally omitted (it is
/// quadratic; the automaton does not need it).
Structure TreeSkeletonStructure(const BinaryTree& t);

/// Wraps an automaton query as a ParametricQuery over the skeleton
/// structure. The returned query captures `t`, `base_labels` and `dta` by
/// reference — keep them alive.
std::unique_ptr<ParametricQuery> MakeTreeQuery(const BinaryTree& t,
                                               const std::vector<uint32_t>& base_labels,
                                               uint32_t base_count, const Dta& dta,
                                               uint32_t param_arity);

}  // namespace qpwm

#endif  // QPWM_TREE_QUERY_H_
