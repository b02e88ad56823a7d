// Reference implementations for the tree scheme, as the library had them
// before contexts were memoized and the witness search learned from its
// fallbacks:
//  * DenseEvaluateWa: the dense context DP, O(n * m) per call (every node
//    gets a full row of m context flags).
//  * PlanPairs: TreeScheme::Plan's witness search — a keyed random pool
//    probed in sorted order, then, for a region the pool misses, the
//    smallest parameter outside the region from the full reverse run.
// Tests compare the library against them answer for answer and witness for
// witness. ShuffledIds renumbers a tree's nodes for tests that must not rely
// on parents preceding their children.
#ifndef QPWM_TESTS_TREE_ORACLE_H_
#define QPWM_TESTS_TREE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/tree/decomposition.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/check.h"
#include "qpwm/util/random.h"

namespace qpwm::oracle {

inline uint32_t SymbolAt(uint32_t base_label, uint32_t base_count, uint32_t param_arity,
                         bool a_here, bool b_here) {
  const uint32_t bits = param_arity == 0 ? (b_here ? 1u : 0u)
                                         : (a_here ? 1u : 0u) | (b_here ? 2u : 0u);
  return base_label + base_count * bits;
}

/// W_a by the dense two-pass context DP.
inline std::vector<NodeId> DenseEvaluateWa(const BinaryTree& t,
                                           const std::vector<uint32_t>& base_labels,
                                           uint32_t base_count, const Dta& dta,
                                           uint32_t param_arity, NodeId a) {
  QPWM_CHECK_LE(param_arity, 1u);
  const size_t n = t.size();
  const uint32_t m = dta.num_states() + 1;  // sink included
  auto sym = [&](NodeId v, bool b_here) {
    return SymbolAt(base_labels[v], base_count, param_arity, param_arity == 1 && v == a,
                    b_here);
  };

  // Pass 1: states with only the parameter pebble placed (no b).
  std::vector<State> sa(n);
  for (NodeId v : t.Postorder()) {
    State l = t.left(v) == kNoNode ? kAbsentChild : sa[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : sa[t.right(v)];
    sa[v] = dta.Step(l, r, sym(v, false));
  }

  // Pass 2 (top-down): ctx[v][q] = would the root accept if the state at v
  // were forced to q (everything else as in pass 1)?
  std::vector<uint8_t> ctx(n * m);
  auto ctx_at = [&](NodeId v, State q) -> uint8_t& { return ctx[v * m + q]; };
  for (State q = 0; q < m; ++q) ctx_at(t.root(), q) = dta.IsAccepting(q) ? 1 : 0;
  const auto& post = t.Postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    NodeId v = *it;
    NodeId lc = t.left(v);
    NodeId rc = t.right(v);
    if (lc != kNoNode) {
      State rs = rc == kNoNode ? kAbsentChild : sa[rc];
      for (State q = 0; q < m; ++q) ctx_at(lc, q) = ctx_at(v, dta.Step(q, rs, sym(v, false)));
    }
    if (rc != kNoNode) {
      State ls = lc == kNoNode ? kAbsentChild : sa[lc];
      for (State q = 0; q < m; ++q) ctx_at(rc, q) = ctx_at(v, dta.Step(ls, q, sym(v, false)));
    }
  }

  // b in W_a  iff  ctx[b][state of b recomputed with the b pebble set].
  std::vector<NodeId> out;
  for (NodeId b = 0; b < n; ++b) {
    State l = t.left(b) == kNoNode ? kAbsentChild : sa[t.left(b)];
    State r = t.right(b) == kNoNode ? kAbsentChild : sa[t.right(b)];
    if (ctx_at(b, dta.Step(l, r, sym(b, true)))) out.push_back(b);
  }
  return out;
}

/// `t` with its node ids shuffled, so that parents no longer precede their
/// children in id order.
inline BinaryTree ShuffledIds(const BinaryTree& t, Rng& rng) {
  std::vector<NodeId> new_id(t.size());
  for (NodeId v = 0; v < t.size(); ++v) new_id[v] = v;
  for (size_t i = t.size(); i > 1; --i) std::swap(new_id[i - 1], new_id[rng.Below(i)]);
  std::vector<uint32_t> label(t.size());
  for (NodeId v = 0; v < t.size(); ++v) label[new_id[v]] = t.label(v);
  BinaryTree out;
  for (uint32_t l : label) out.AddNode(l);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.left(v) != kNoNode) out.SetLeft(new_id[v], new_id[t.left(v)]);
    if (t.right(v) != kNoNode) out.SetRight(new_id[v], new_id[t.right(v)]);
  }
  QPWM_CHECK(out.Finalize().ok());
  return out;
}

/// One planned pair: (b_plus, b_minus, witness node or kNoNode for the
/// empty parameter).
using PlannedPair = std::tuple<NodeId, NodeId, NodeId>;

/// The pairs and witnesses TreeScheme::Plan chose before its witness pool
/// learned from fallbacks.
inline std::vector<PlannedPair> PlanPairs(const BinaryTree& t,
                                          const std::vector<uint32_t>& labels,
                                          uint32_t base_count, const Dta& dta,
                                          uint32_t param_arity,
                                          const TreeSchemeOptions& options) {
  std::vector<bool> active(t.size(), false);
  {
    Dta exists_a = param_arity == 1 ? ProjectParamTrack(dta, base_count) : dta;
    for (NodeId b : DenseEvaluateWa(t, labels, base_count, exists_a, 0, 0)) active[b] = true;
  }
  DecompositionOptions dopts;
  dopts.shuffle_seed = options.key.Derive(0xDEC0).k0;
  dopts.min_region_size = options.min_region_size;
  dopts.max_region_size = options.max_region_size;
  DecompositionStats stats;
  const std::vector<MarkRegion> regions =
      FindMarkRegions(t, labels, base_count, dta, param_arity, dopts, &stats, &active);
  std::vector<NodeId> region_of(t.size(), kNoNode);
  for (size_t i = 0; i < regions.size(); ++i) {
    for (NodeId w : regions[i].nodes) region_of[w] = static_cast<NodeId>(i);
  }

  std::vector<std::pair<NodeId, std::vector<bool>>> pool;
  if (param_arity == 1) {
    Rng rng(options.key.Derive(0x317).k0);
    std::vector<NodeId> candidates{t.root()};
    for (size_t i = 0; i + 1 < options.witness_attempts; ++i) {
      candidates.push_back(static_cast<NodeId>(rng.Below(t.size())));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    for (NodeId a : candidates) {
      std::vector<bool> member(t.size(), false);
      for (NodeId b : DenseEvaluateWa(t, labels, base_count, dta, 1, a)) member[b] = true;
      pool.emplace_back(a, std::move(member));
    }
  }

  Dta swapped = param_arity == 1 ? SwapPebbleTracks(dta, base_count)
                                 : Dta(0, base_count * 2);
  std::vector<PlannedPair> out;
  for (size_t idx = 0; idx < regions.size(); ++idx) {
    const MarkRegion& region = regions[idx];
    if (!region.paired()) continue;
    if (param_arity == 0) {
      if (MemberWa(t, labels, base_count, dta, 0, 0, region.b_plus)) {
        out.emplace_back(region.b_plus, region.b_minus, kNoNode);
      }
      continue;
    }
    bool found = false;
    for (const auto& [a, member] : pool) {
      if (region_of[a] == static_cast<NodeId>(idx) || !member[region.b_plus]) continue;
      out.emplace_back(region.b_plus, region.b_minus, a);
      found = true;
      break;
    }
    if (found) continue;
    for (NodeId a : DenseEvaluateWa(t, labels, base_count, swapped, 1, region.b_plus)) {
      if (region_of[a] == static_cast<NodeId>(idx)) continue;
      out.emplace_back(region.b_plus, region.b_minus, a);
      break;
    }
  }
  return out;
}

/// The pairs and witnesses of a planned scheme, read off its witness plan
/// (pair i's nodes sit in read slots 2i and 2i + 1).
inline std::vector<PlannedPair> SchemePairs(const TreeScheme& scheme) {
  const WitnessPlan& plan = scheme.witness_plan();
  std::vector<PlannedPair> out(scheme.NumPairs(), {kNoNode, kNoNode, kNoNode});
  for (size_t g = 0; g < plan.params.size(); ++g) {
    const NodeId witness = plan.params[g].empty() ? kNoNode : plan.params[g][0];
    for (uint32_t r = plan.read_offsets[g]; r < plan.read_offsets[g + 1]; ++r) {
      const auto [slot, key] = plan.reads[r];
      auto& [plus, minus, w] = out[slot / 2];
      (slot % 2 == 0 ? plus : minus) = key;
      w = witness;
    }
  }
  return out;
}

}  // namespace qpwm::oracle

#endif  // QPWM_TESTS_TREE_ORACLE_H_
