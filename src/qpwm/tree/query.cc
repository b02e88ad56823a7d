#include "qpwm/tree/query.h"

#include <algorithm>

#include "qpwm/util/check.h"

namespace qpwm {
namespace {

// Symbol of node v given which pebbles sit on it. With a parameter the
// automaton alphabet is Sigma x {0,1}^2 (track 0 = a, track 1 = b);
// without, Sigma x {0,1} (track 0 = b).
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

bool MemberWa(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
              uint32_t base_count, const Dta& dta, uint32_t param_arity, NodeId a,
              NodeId b) {
  QPWM_CHECK_LE(param_arity, 1u);
  std::vector<State> state(t.size());
  for (NodeId v : t.Postorder()) {
    State l = t.left(v) == kNoNode ? kAbsentChild : state[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : state[t.right(v)];
    uint32_t sym = SymbolAt(base_labels[v], base_count, param_arity,
                            param_arity == 1 && v == a, v == b);
    state[v] = dta.Step(l, r, sym);
  }
  return dta.IsAccepting(state[t.root()]);
}

std::vector<NodeId> EvaluateWa(const BinaryTree& t,
                               const std::vector<uint32_t>& base_labels,
                               uint32_t base_count, const Dta& dta,
                               uint32_t param_arity, NodeId a) {
  QPWM_CHECK_LE(param_arity, 1u);
  const size_t n = t.size();
  const uint32_t m = dta.num_states() + 1;  // sink included

  // Pass 1: states with only the parameter pebble placed (no b).
  std::vector<State> sa(n);
  for (NodeId v : t.Postorder()) {
    State l = t.left(v) == kNoNode ? kAbsentChild : sa[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : sa[t.right(v)];
    uint32_t sym = SymbolAt(base_labels[v], base_count, param_arity,
                            param_arity == 1 && v == a, false);
    sa[v] = dta.Step(l, r, sym);
  }

  // Pass 2 (top-down): ctx[v][q] = would the root accept if the state at v
  // were forced to q (everything else as in pass 1)?
  std::vector<uint8_t> ctx(n * m);
  auto ctx_at = [&](NodeId v, State q) -> uint8_t& { return ctx[v * m + q]; };

  for (State q = 0; q < m; ++q) {
    ctx_at(t.root(), q) = dta.IsAccepting(q) ? 1 : 0;
  }
  // Parents before children: reverse postorder.
  const auto& post = t.Postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    NodeId v = *it;
    NodeId lc = t.left(v);
    NodeId rc = t.right(v);
    uint32_t sym = SymbolAt(base_labels[v], base_count, param_arity,
                            param_arity == 1 && v == a, false);
    if (lc != kNoNode) {
      State rs = rc == kNoNode ? kAbsentChild : sa[rc];
      for (State q = 0; q < m; ++q) {
        ctx_at(lc, q) = ctx_at(v, dta.Step(q, rs, sym));
      }
    }
    if (rc != kNoNode) {
      State ls = lc == kNoNode ? kAbsentChild : sa[lc];
      for (State q = 0; q < m; ++q) {
        ctx_at(rc, q) = ctx_at(v, dta.Step(ls, q, sym));
      }
    }
  }

  // b in W_a  iff  ctx[b][state of b recomputed with the b pebble set].
  std::vector<NodeId> out;
  for (NodeId b = 0; b < n; ++b) {
    State l = t.left(b) == kNoNode ? kAbsentChild : sa[t.left(b)];
    State r = t.right(b) == kNoNode ? kAbsentChild : sa[t.right(b)];
    uint32_t sym = SymbolAt(base_labels[b], base_count, param_arity,
                            param_arity == 1 && b == a, true);
    State with_pebble = dta.Step(l, r, sym);
    if (ctx_at(b, with_pebble)) out.push_back(b);
  }
  return out;
}

Dta ProjectParamTrack(const Dta& dta, uint32_t base_count) {
  QPWM_CHECK_EQ(dta.alphabet_size(), base_count * 4);
  std::vector<uint32_t> image(base_count * 4);
  for (uint32_t sym = 0; sym < image.size(); ++sym) {
    uint32_t base = sym % base_count;
    uint32_t bits = sym / base_count;     // bit 0 = a, bit 1 = b
    uint32_t b_bit = (bits >> 1) & 1;
    image[sym] = base + base_count * b_bit;
  }
  return dta.ToNta().Project(base_count * 2, image).Determinize().Minimize();
}

Dta SwapPebbleTracks(const Dta& dta, uint32_t base_count) {
  QPWM_CHECK_EQ(dta.alphabet_size(), base_count * 4);
  std::vector<uint32_t> source(base_count * 4);
  for (uint32_t sym = 0; sym < source.size(); ++sym) {
    uint32_t base = sym % base_count;
    uint32_t bits = sym / base_count;
    uint32_t swapped = ((bits & 1) << 1) | ((bits >> 1) & 1);
    source[sym] = base + base_count * swapped;
  }
  return dta.RemapSymbols(source);
}

Structure TreeSkeletonStructure(const BinaryTree& t) {
  Signature sig;
  size_t s1 = sig.AddRelation("S1", 2);
  size_t s2 = sig.AddRelation("S2", 2);
  Structure g(sig, t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.left(v) != kNoNode) g.AddTuple(s1, Tuple{v, t.left(v)});
    if (t.right(v) != kNoNode) g.AddTuple(s2, Tuple{v, t.right(v)});
  }
  g.Seal();
  return g;
}

std::unique_ptr<ParametricQuery> MakeTreeQuery(const BinaryTree& t,
                                               const std::vector<uint32_t>& base_labels,
                                               uint32_t base_count, const Dta& dta,
                                               uint32_t param_arity) {
  QPWM_CHECK_LE(param_arity, 1u);
  auto fn = [&t, &base_labels, base_count, &dta, param_arity](
                const Structure&, const Tuple& params) {
    NodeId a = param_arity == 1 ? params[0] : 0;
    // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
    std::vector<Tuple> out;
    for (NodeId b : EvaluateWa(t, base_labels, base_count, dta, param_arity, a)) {
      out.push_back(Tuple{b});
    }
    return out;
  };
  return std::make_unique<CallbackQuery>("tree-automaton", param_arity, 1,
                                         std::move(fn));
}

}  // namespace qpwm
