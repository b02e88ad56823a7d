#include "qpwm/tree/decomposition.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "qpwm/util/check.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

// Symbol with optional pebbles; mirrors query.cc's convention.
uint32_t SymbolAt(uint32_t base_label, uint32_t base_count, uint32_t param_arity,
                  bool a_here, bool b_here) {
  uint32_t bits;
  if (param_arity == 0) {
    bits = b_here ? 1 : 0;
  } else {
    bits = (a_here ? 1 : 0) | (b_here ? 2u : 0);
  }
  return base_label + base_count * bits;
}

}  // namespace

std::vector<MarkRegion> FindMarkRegions(const BinaryTree& t,
                                        const std::vector<uint32_t>& labels,
                                        uint32_t base_count, const Dta& dta,
                                        uint32_t param_arity,
                                        const DecompositionOptions& options,
                                        DecompositionStats* stats,
                                        const std::vector<bool>* candidate_filter) {
  QPWM_CHECK_LE(param_arity, 1u);
  const size_t n = t.size();
  const size_t m_plus = dta.num_states() + 1;
  const size_t min_size = options.min_region_size > 0
                              ? options.min_region_size
                              : std::min<size_t>(2 * m_plus, 8);
  const size_t max_size =
      options.max_region_size > 0 ? options.max_region_size : 64 * m_plus;
  Rng rng(options.shuffle_seed);

  // --- Global DP: s0 (no pebbles) and, with a parameter, ach(v) = states at
  // v achievable with the a pebble somewhere in subtree(v).
  std::vector<State> s0(n);
  std::vector<std::vector<State>> ach(param_arity == 1 ? n : 0);
  for (NodeId v : t.Postorder()) {
    State l = t.left(v) == kNoNode ? kAbsentChild : s0[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : s0[t.right(v)];
    uint32_t sym = SymbolAt(labels[v], base_count, param_arity, false, false);
    s0[v] = dta.Step(l, r, sym);
    if (param_arity == 1) {
      std::vector<State>& out = ach[v];
      // a at v itself:
      uint32_t sym_a = SymbolAt(labels[v], base_count, param_arity, true, false);
      out.push_back(dta.Step(l, r, sym_a));
      // a in the left subtree:
      if (t.left(v) != kNoNode) {
        for (State ql : ach[t.left(v)]) out.push_back(dta.Step(ql, r, sym));
      }
      // a in the right subtree:
      if (t.right(v) != kNoNode) {
        for (State qr : ach[t.right(v)]) out.push_back(dta.Step(l, qr, sym));
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
  }

  // --- Bottom-up sweep.
  std::vector<bool> assigned(n, false);      // node sits in a closed region
  std::vector<bool> region_root(n, false);   // node is a closed region's root
  std::vector<size_t> unassigned(n, 0);      // unassigned nodes in subtree
  std::vector<size_t> attempted(n, 0);       // size at last failed attempt

  // Postorder position, for ordering region nodes children-first.
  std::vector<uint32_t> post_pos(n);
  for (uint32_t i = 0; i < t.Postorder().size(); ++i) post_pos[t.Postorder()[i]] = i;

  std::vector<MarkRegion> regions;

  // Collects the unassigned nodes and holes of the candidate region at v.
  auto collect_region = [&](NodeId v, std::vector<NodeId>& nodes,
                            std::vector<NodeId>& holes) {
    std::vector<NodeId> stack{v};
    while (!stack.empty()) {
      NodeId w = stack.back();
      stack.pop_back();
      if (assigned[w]) {
        holes.push_back(w);
        QPWM_CHECK(region_root[w]);
        continue;
      }
      nodes.push_back(w);
      if (t.left(w) != kNoNode) stack.push_back(t.left(w));
      if (t.right(w) != kNoNode) stack.push_back(t.right(w));
    }
    std::sort(nodes.begin(), nodes.end(),
              [&](NodeId a, NodeId b) { return post_pos[a] < post_pos[b]; });
  };

  // Tries to find a neutral pair in the candidate region; returns true on
  // success and fills b_plus / b_minus.
  auto find_pair = [&](NodeId v, const std::vector<NodeId>& nodes,
                       const std::vector<NodeId>& holes, NodeId& b_plus,
                       NodeId& b_minus) {
    if (stats != nullptr) ++stats->attempts;

    // Reachable hole-state combinations: the all-quiet one, plus (when the
    // query has a parameter) each single hole carrying the pebble.
    // combos[c] maps hole index -> state.
    std::vector<std::vector<State>> combos;
    std::vector<State> quiet(holes.size());
    for (size_t h = 0; h < holes.size(); ++h) quiet[h] = s0[holes[h]];
    combos.push_back(quiet);
    if (param_arity == 1) {
      for (size_t h = 0; h < holes.size(); ++h) {
        for (State q : ach[holes[h]]) {
          if (q == s0[holes[h]]) continue;
          std::vector<State> combo = quiet;
          combo[h] = q;
          combos.push_back(std::move(combo));
        }
      }
    }

    // Child slots of each region node, resolved once: a region node's index,
    // nodes.size() + h for hole h, or kAbsent. `state` holds the region
    // nodes' states followed by the holes' states of the current combo.
    constexpr uint32_t kAbsent = UINT32_MAX;
    std::unordered_map<NodeId, uint32_t> slot_of;
    for (size_t i = 0; i < nodes.size(); ++i) slot_of.emplace(nodes[i], static_cast<uint32_t>(i));
    for (size_t h = 0; h < holes.size(); ++h) {
      slot_of.emplace(holes[h], static_cast<uint32_t>(nodes.size() + h));
    }
    auto slot = [&](NodeId c) { return c == kNoNode ? kAbsent : slot_of.at(c); };
    std::vector<uint32_t> left_slot(nodes.size()), right_slot(nodes.size());
    std::vector<uint32_t> sym(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      left_slot[i] = slot(t.left(nodes[i]));
      right_slot[i] = slot(t.right(nodes[i]));
      sym[i] = SymbolAt(labels[nodes[i]], base_count, param_arity, false, false);
    }
    const uint32_t root_slot = slot_of.at(v);

    // Candidate order is keyed: the attacker cannot predict which collision
    // pair carries the bit.
    std::vector<NodeId> candidates;
    for (NodeId w : nodes) {
      if (candidate_filter == nullptr || (*candidate_filter)[w]) candidates.push_back(w);
    }
    rng.Shuffle(candidates);

    std::map<std::vector<State>, NodeId> seen;
    std::vector<State> state(nodes.size() + holes.size());
    auto at = [&](uint32_t c) { return c == kAbsent ? kAbsentChild : state[c]; };
    for (NodeId b : candidates) {
      const uint32_t b_slot = slot_of.at(b);
      const uint32_t b_sym = SymbolAt(labels[b], base_count, param_arity, false, true);
      std::vector<State> signature;
      signature.reserve(combos.size());
      for (const auto& combo : combos) {
        std::copy(combo.begin(), combo.end(), state.begin() + nodes.size());
        for (size_t i = 0; i < nodes.size(); ++i) {
          state[i] = dta.Step(at(left_slot[i]), at(right_slot[i]), i == b_slot ? b_sym : sym[i]);
        }
        signature.push_back(state[root_slot]);
      }
      auto [it, inserted] = seen.emplace(std::move(signature), b);
      if (!inserted) {
        b_plus = it->second;
        b_minus = b;
        return true;
      }
    }
    return false;
  };

  auto close_region = [&](NodeId v, std::vector<NodeId> nodes,
                          std::vector<NodeId> holes, NodeId b_plus, NodeId b_minus) {
    for (NodeId w : nodes) assigned[w] = true;
    region_root[v] = true;
    unassigned[v] = 0;
    attempted[v] = 0;
    if (stats != nullptr) {
      stats->covered_nodes += nodes.size();
      if (b_plus != kNoNode) {
        ++stats->paired;
      } else {
        ++stats->unpaired;
      }
    }
    MarkRegion region;
    region.root = v;
    region.holes = std::move(holes);
    region.nodes = std::move(nodes);
    region.b_plus = b_plus;
    region.b_minus = b_minus;
    regions.push_back(std::move(region));
  };

  for (NodeId v : t.Postorder()) {
    size_t count = 1;
    size_t last_attempt = 0;
    if (t.left(v) != kNoNode) {
      count += unassigned[t.left(v)];
      last_attempt = std::max(last_attempt, attempted[t.left(v)]);
    }
    if (t.right(v) != kNoNode) {
      count += unassigned[t.right(v)];
      last_attempt = std::max(last_attempt, attempted[t.right(v)]);
    }
    unassigned[v] = count;
    attempted[v] = last_attempt;

    if (count < min_size) continue;
    // Geometric retry: only search again once the region has doubled since
    // the last failure on this path (keeps total work near-linear).
    if (count < 2 * last_attempt && count <= max_size) continue;

    std::vector<NodeId> nodes, holes;
    collect_region(v, nodes, holes);
    QPWM_CHECK_EQ(nodes.size(), count);

    NodeId b_plus = kNoNode, b_minus = kNoNode;
    if (find_pair(v, nodes, holes, b_plus, b_minus)) {
      close_region(v, std::move(nodes), std::move(holes), b_plus, b_minus);
    } else if (count > max_size) {
      close_region(v, std::move(nodes), std::move(holes), kNoNode, kNoNode);
    } else {
      attempted[v] = count;
    }
  }

  return regions;
}

}  // namespace qpwm
