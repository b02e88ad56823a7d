#include "qpwm/tree/query.h"

#include <algorithm>
#include <memory>

#include "qpwm/util/check.h"
#include "qpwm/util/hash.h"

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


// The contexts of one evaluation: state sets over the m states (sink
// included), interned as bitsets behind an open-addressing table.
class ContextPool {
 public:
  explicit ContextPool(uint32_t m) : words_((size_t{m} + 63) / 64), slots_(16, kEmpty) {}

  size_t words() const { return words_; }
  bool Has(uint32_t id, State q) const {
    return (bits_[id * words_ + q / 64] >> (q % 64)) & 1;
  }
  /// Id of the set whose bitset is `row` (words() words), added on first
  /// sight. `row` must not point into the pool.
  uint32_t Intern(const uint64_t* row) {
    if (2 * (count_ + 1) > slots_.size()) Grow();
    for (size_t i = Hash(row) & (slots_.size() - 1);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == kEmpty) {
        bits_.insert(bits_.end(), row, row + words_);
        return slots_[i] = count_++;
      }
      if (std::equal(row, row + words_, bits_.begin() + slots_[i] * words_)) return slots_[i];
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  uint64_t Hash(const uint64_t* row) const {
    uint64_t h = 0;
    for (size_t w = 0; w < words_; ++w) h = HashCombine(h, row[w]);
    return h ^ (h >> 29);
  }
  void Grow() {
    std::vector<uint32_t> slots(slots_.size() * 2, kEmpty);
    for (uint32_t id = 0; id < count_; ++id) {
      size_t i = Hash(bits_.data() + id * words_) & (slots.size() - 1);
      while (slots[i] != kEmpty) i = (i + 1) & (slots.size() - 1);
      slots[i] = id;
    }
    slots_ = std::move(slots);
  }

  size_t words_;
  std::vector<uint64_t> bits_;   // set id -> words_ words
  std::vector<uint32_t> slots_;  // power of two, at most half full
  uint32_t count_ = 0;
};

// (parent context, sibling state, class << 1 | side) -> child context, for
// one evaluation. Open addressing, at most half full.
class StepMemo {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;

  /// The child slot of the key, inserted as kMissing when new. Valid until
  /// the next Find.
  uint32_t& Find(uint32_t parent, State sibling, uint32_t cls_side) {
    if (2 * (count_ + 1) > slots_.size()) Grow();
    for (size_t i = Hash(parent, sibling, cls_side);; i = (i + 1) & (slots_.size() - 1)) {
      Entry& e = slots_[i];
      if (e.parent == kMissing) {
        ++count_;
        e = {parent, sibling, cls_side, kMissing};
        return e.child;
      }
      if (e.parent == parent && e.sibling == sibling && e.cls_side == cls_side) {
        return e.child;
      }
    }
  }

 private:
  struct Entry {
    uint32_t parent = kMissing;  // kMissing: free slot
    State sibling = 0;
    uint32_t cls_side = 0;
    uint32_t child = kMissing;
  };

  size_t Hash(uint32_t parent, State sibling, uint32_t cls_side) const {
    const uint64_t h = HashCombine(HashCombine(parent, sibling), cls_side);
    return (h >> 20) & (slots_.size() - 1);
  }
  void Grow() {
    std::vector<Entry> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Entry& e : old) {
      if (e.parent == kMissing) continue;
      size_t i = Hash(e.parent, e.sibling, e.cls_side);
      while (slots_[i].parent != kMissing) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = e;
    }
  }

  std::vector<Entry> slots_ = std::vector<Entry>(64);
  size_t count_ = 0;
};

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

WaEvaluator::WaEvaluator(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
                         uint32_t base_count, const Dta& dta, uint32_t param_arity)
    : t_(&t),
      labels_(&base_labels),
      base_count_(base_count),
      dta_(&dta),
      param_arity_(param_arity),
      free_(t.size()),
      free_cls_(t.size()),
      b_state_(t.size()) {
  QPWM_CHECK_LE(param_arity, 1u);
  QPWM_CHECK_EQ(base_labels.size(), t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    free_cls_[v] = SymbolClass(v, false, false);
    parents_first_ = parents_first_ && (t.parent(v) == kNoNode || t.parent(v) < v);
  }
  for (NodeId v : t.Postorder()) {
    State l = t.left(v) == kNoNode ? kAbsentChild : free_[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : free_[t.right(v)];
    free_[v] = dta.StepClass(l, r, free_cls_[v]);
    b_state_[v] = dta.StepClass(l, r, SymbolClass(v, false, true));
  }
}

uint32_t WaEvaluator::SymbolClass(NodeId v, bool a_here, bool b_here) const {
  return dta_->ClassOf(SymbolAt((*labels_)[v], base_count_, param_arity_, a_here, b_here));
}

std::vector<NodeId> WaEvaluator::Evaluate(NodeId a) const {
  return EvaluateBelow(a, static_cast<NodeId>(t_->size()));
}

std::vector<NodeId> WaEvaluator::EvaluateBelow(NodeId a, NodeId limit) const {
  const BinaryTree& t = *t_;
  const Dta& dta = *dta_;
  const size_t n = t.size();
  limit = static_cast<NodeId>(std::min<size_t>(limit, n));
  // A parameter outside the tree (a node of another document) places no
  // pebble.
  const bool has_a = param_arity_ == 1 && a < n;
  const uint32_t a_cls = has_a ? SymbolClass(a, true, false) : 0;

  // Pass 1: the parameter pebble changes bottom-up states only on a's
  // ancestors, and only up to the first whose state comes out as in the
  // pebble-free run. Those states go to `moved`, written (and flagged in
  // `is_moved`) on that path only.
  auto moved = std::make_unique_for_overwrite<State[]>(n);
  std::vector<uint64_t> is_moved((n + 63) / 64);
  if (has_a) {
    for (NodeId x = a, below = kNoNode; x != kNoNode; below = x, x = t.parent(x)) {
      auto child = [&](NodeId c) {
        if (c == kNoNode) return kAbsentChild;
        return c == below ? moved[c] : free_[c];
      };
      const State s = dta.StepClass(child(t.left(x)), child(t.right(x)),
                                    x == a ? a_cls : free_cls_[x]);
      if (s == free_[x]) break;
      moved[x] = s;
      is_moved[x / 64] |= uint64_t{1} << (x % 64);
    }
  }
  auto was_moved = [&](NodeId v) { return (is_moved[v / 64] >> (v % 64)) & 1; };
  auto state = [&](NodeId v) { return was_moved(v) ? moved[v] : free_[v]; };
  auto cls_at = [&](NodeId v) { return has_a && v == a ? a_cls : free_cls_[v]; };

  // Pass 2 (top-down): the context of v is the set of states q such that
  // forcing v's state to q (everything else as in pass 1) makes the root
  // accept. A child's context depends only on its parent's context, its
  // sibling's state, the parent's symbol class and its side, so contexts
  // are interned and each distinct step is computed once.
  const uint32_t m = dta.num_states() + 1;  // sink included
  ContextPool contexts(m);
  StepMemo memo;
  std::vector<uint64_t> row(contexts.words());
  for (State q = 0; q < m; ++q) {
    if (dta.IsAccepting(q)) row[q / 64] |= uint64_t{1} << (q % 64);
  }
  const uint32_t root_context = contexts.Intern(row.data());
  auto ctx = std::make_unique_for_overwrite<uint32_t[]>(n);
  auto visit = [&](NodeId v) {
    const NodeId p = t.parent(v);
    if (p == kNoNode) {
      ctx[v] = root_context;
      return;
    }
    const bool left = t.left(p) == v;
    const NodeId sib = left ? t.right(p) : t.left(p);
    const State sib_state = sib == kNoNode ? kAbsentChild : state(sib);
    const uint32_t cls = cls_at(p);
    uint32_t& child = memo.Find(ctx[p], sib_state, (cls << 1) | (left ? 0 : 1));
    if (child == StepMemo::kMissing) {
      std::fill(row.begin(), row.end(), 0);
      for (State q = 0; q < m; ++q) {
        const State up = left ? dta.StepClass(q, sib_state, cls)
                              : dta.StepClass(sib_state, q, cls);
        if (contexts.Has(ctx[p], up)) row[q / 64] |= uint64_t{1} << (q % 64);
      }
      child = contexts.Intern(row.data());
    }
    ctx[v] = child;
  };
  if (parents_first_) {
    for (NodeId v = 0; v < limit; ++v) visit(v);
  } else {
    const auto& post = t.Postorder();
    for (auto it = post.rbegin(); it != post.rend(); ++it) visit(*it);
  }

  // b in W_a  iff  b's context holds b's state recomputed with the b
  // pebble: the pebble-free one unless a child moved or a is b.
  std::vector<NodeId> out;
  for (NodeId b = 0; b < limit; ++b) {
    const NodeId lc = t.left(b);
    const NodeId rc = t.right(b);
    State with_b = b_state_[b];
    if ((has_a && b == a) || (lc != kNoNode && was_moved(lc)) ||
        (rc != kNoNode && was_moved(rc))) {
      with_b = dta.StepClass(lc == kNoNode ? kAbsentChild : state(lc),
                             rc == kNoNode ? kAbsentChild : state(rc),
                             SymbolClass(b, has_a && b == a, true));
    }
    if (contexts.Has(ctx[b], with_b)) out.push_back(b);
  }
  return out;
}

std::vector<NodeId> EvaluateWa(const BinaryTree& t,
                               const std::vector<uint32_t>& base_labels,
                               uint32_t base_count, const Dta& dta,
                               uint32_t param_arity, NodeId a) {
  return WaEvaluator(t, base_labels, base_count, dta, param_arity).Evaluate(a);
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
  auto eval = std::make_shared<const WaEvaluator>(t, base_labels, base_count, dta, param_arity);
  auto fn = [eval, param_arity](const Structure&, const Tuple& params) {
    NodeId a = param_arity == 1 ? params[0] : 0;
    // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
    std::vector<Tuple> out;
    for (NodeId b : eval->Evaluate(a)) out.push_back(Tuple{b});
    return out;
  };
  return std::make_unique<CallbackQuery>("tree-automaton", param_arity, 1,
                                         std::move(fn));
}

}  // namespace qpwm
