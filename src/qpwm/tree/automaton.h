// Bottom-up tree automata over binary Sigma-trees, with the closure algebra
// needed to compile MSO (Lemma 2 infrastructure): product, complement,
// symbol remapping (cylindrification / permutation of pebble tracks),
// projection, determinization and minimization.
//
// Representation notes:
//  * A Dta has `num_states()` real states plus an implicit *sink* with id
//    `sink()` == num_states(): every missing transition goes to the sink and
//    the sink absorbs. The sink has its own accepting flag so complementation
//    is a pure flag flip — no transition enumeration ever happens.
//  * Absent children (unary / leaf positions) are the distinguished value
//    kAbsentChild, matching the paper's '*' in delta.
//  * Symbols are grouped into *classes*: every symbol of a class has the same
//    transition column, and transitions are stored once per (left, right,
//    class), in a dense table. The pebble-track alphabets Sigma x {0,1}^k
//    that MSO compilation produces are large but have few distinct columns,
//    so every operation below works per class and never enumerates the
//    alphabet beyond one pass over the symbol -> class vector. Class ids
//    are numbered by first appearance in ascending symbol order, so
//    iterating classes in id order visits their smallest symbols in
//    ascending order — the order the per-symbol constructions used, which
//    keeps state numbering unchanged. Every class has at least one symbol.
#ifndef QPWM_TREE_AUTOMATON_H_
#define QPWM_TREE_AUTOMATON_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qpwm/tree/bintree.h"
#include "qpwm/util/check.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Automaton state id.
using State = uint32_t;
/// The '*' pseudo-state for a missing child.
constexpr State kAbsentChild = UINT32_MAX;
/// Largest alphabet an automaton accepts (its symbol -> class vector is
/// 4 bytes per symbol). Callers building alphabets from input data check
/// against it and report an error instead.
constexpr uint32_t kMaxAlphabetSize = 1u << 21;

/// Flat pool of sorted state sets, interned by content (hashed).
class StateSetPool {
 public:
  size_t size() const { return offsets_.size() - 1; }
  /// Members of set `id`; valid until the next Intern.
  const State* begin(uint32_t id) const { return pool_.data() + offsets_[id]; }
  const State* end(uint32_t id) const { return pool_.data() + offsets_[id + 1]; }
  /// Id of the sorted, duplicate-free set `s`, added on first sight (ids
  /// count up from 0 in order of first sight).
  uint32_t Intern(const std::vector<State>& s);

 private:
  std::vector<State> pool_;
  std::vector<size_t> offsets_{0};
  std::unordered_multimap<uint64_t, uint32_t> by_hash_;
};

class Nta;

/// Deterministic bottom-up tree automaton (complete via the implicit sink).
/// Transitions live in a dense (left, right, class) table.
class Dta {
 public:
  /// Every symbol in a class of its own.
  Dta(uint32_t num_states, uint32_t alphabet_size);
  /// Symbols grouped by `symbol_class` (symbol -> class id), which must be
  /// numbered by first appearance.
  Dta(uint32_t num_states, std::vector<uint32_t> symbol_class);

  uint32_t num_states() const { return num_states_; }
  uint32_t alphabet_size() const { return static_cast<uint32_t>(symbol_class_.size()); }
  uint32_t num_classes() const { return num_classes_; }
  /// Id of the implicit absorbing sink.
  State sink() const { return num_states_; }
  /// Stored (left, right, class) transitions into real states.
  size_t num_transitions() const;

  /// Adds delta(left, right, s) = to for every symbol s of class `cls`.
  /// left/right: real state or kAbsentChild. Duplicates must agree; a
  /// transition into the sink is the same as none.
  void AddTransition(State left, State right, uint32_t cls, State to);

  void SetAccepting(State q, bool accepting) {
    QPWM_CHECK_LE(q, num_states_);
    accepting_[q] = accepting;
  }
  bool IsAccepting(State q) const { return accepting_[q]; }

  /// Class of symbol `sym`.
  uint32_t ClassOf(uint32_t sym) const { return symbol_class_[sym]; }

  /// delta with sink absorption and missing transition -> sink.
  State Step(State left, State right, uint32_t sym) const {
    return StepClass(left, right, symbol_class_[sym]);
  }
  /// Step for any symbol of class `cls`.
  State StepClass(State left, State right, uint32_t cls) const {
    if (left == sink() || right == sink()) return sink();
    return delta_[Slot(left, right, cls)];
  }

  /// Bottom-up run; `symbols[v]` is the (pebbled) label of node v. Returns
  /// the per-node states.
  std::vector<State> Run(const BinaryTree& t, const std::vector<uint32_t>& symbols) const;

  /// Root state only.
  State RunRoot(const BinaryTree& t, const std::vector<uint32_t>& symbols) const;

  bool Accepts(const BinaryTree& t, const std::vector<uint32_t>& symbols) const {
    return IsAccepting(RunRoot(t, symbols));
  }

  /// Language complement: flips every accepting flag (sink included).
  Dta Complement() const;

  /// Product automaton accepting the conjunction (or disjunction) of the two
  /// languages. Alphabets must match. The result's classes are the joint
  /// classes (class in a, class in b) that occur.
  static Dta Product(const Dta& a, const Dta& b, bool conjunction);

  /// View as a nondeterministic automaton (shares semantics exactly,
  /// including an accepting sink if this one has it).
  Nta ToNta() const;

  /// Language-preserving state minimization (partition refinement);
  /// also drops unreachable states and merges classes whose columns
  /// became equal.
  Dta Minimize() const;

  /// Re-keys the alphabet: new symbol t behaves as old symbol source[t];
  /// the new alphabet has source.size() symbols. Used for cylindrification
  /// and track permutation. Only the class vector is rebuilt, and the table
  /// keeps its columns (renumbered by first appearance).
  Dta RemapSymbols(const std::vector<uint32_t>& source) const;

  /// True iff the automaton accepts no tree at all.
  bool IsEmpty() const;

  /// True iff it accepts every tree over its alphabet.
  bool IsUniversal() const { return Complement().IsEmpty(); }

  /// Language equivalence: L(a) == L(b) (alphabets must match).
  static bool Equivalent(const Dta& a, const Dta& b);

 private:
  friend class Nta;

  // Table row of a child: 0 for kAbsentChild, q + 1 for real state q.
  static size_t ChildRow(State q) { return q == kAbsentChild ? 0 : size_t{q} + 1; }
  size_t Slot(State l, State r, uint32_t cls) const {
    return (ChildRow(l) * (num_states_ + 1) + ChildRow(r)) * num_classes_ + cls;
  }
  /// kAbsentChild, then the real states some tree reaches (discovery
  /// order); `sink_reached` tells whether some tree runs into the sink.
  std::vector<State> LiveChildren(bool& sink_reached) const;
  /// Table whose column k is this table's column columns[k].
  std::vector<State> SelectColumns(const std::vector<uint32_t>& columns) const;
  /// Keeps one class per distinct column, renumbered by first appearance.
  void MergeEqualClasses();

  uint32_t num_states_;
  uint32_t num_classes_;
  std::vector<uint32_t> symbol_class_;
  // (num_states + 1)^2 * num_classes slots; sink() where no transition.
  std::vector<State> delta_;
  std::vector<bool> accepting_;  // size num_states_ + 1 (sink last)
};

/// Nondeterministic bottom-up tree automaton. Produced by projection; the
/// sink (id num_states()) behaves as in Dta: a missing transition or a sink
/// child leads to {sink}, and the sink may be accepting. Symbols are grouped
/// into classes as in Dta; each (left, right, class) slot holds an interned
/// target set.
class Nta {
 public:
  /// Every symbol in a class of its own.
  Nta(uint32_t num_states, uint32_t alphabet_size);

  uint32_t num_states() const { return num_states_; }
  uint32_t alphabet_size() const { return static_cast<uint32_t>(symbol_class_.size()); }
  uint32_t num_classes() const { return num_classes_; }
  State sink() const { return num_states_; }

  /// Adds `to` to delta(left, right, s) for every symbol s of class `cls`.
  void AddTransition(State left, State right, uint32_t cls, State to);
  void SetAccepting(State q, bool accepting) {
    QPWM_CHECK_LE(q, num_states_);
    accepting_[q] = accepting;
  }
  bool IsAccepting(State q) const { return accepting_[q]; }

  /// Projection: old symbol s becomes new symbol image[s], and a new symbol
  /// behaves as the union of its preimages (a preimage without a
  /// transition contributes the sink). Classes with equal merged columns
  /// are merged.
  Nta Project(uint32_t new_alphabet_size, const std::vector<uint32_t>& image) const;

  /// Subset construction, one class at a time. The result is complete over
  /// reachable subset combinations; its sink is unreachable (and
  /// non-accepting).
  Dta Determinize() const;

 private:
  friend class Dta;

  static constexpr uint32_t kNoTargets = UINT32_MAX;

  Nta(uint32_t num_states, std::vector<uint32_t> symbol_class);

  // Same layout as Dta's table.
  size_t Slot(State l, State r, uint32_t cls) const {
    return (Dta::ChildRow(l) * (num_states_ + 1) + Dta::ChildRow(r)) * num_classes_ + cls;
  }

  uint32_t num_states_;
  uint32_t num_classes_;
  std::vector<uint32_t> symbol_class_;
  // Slot -> target set id in `targets_`, kNoTargets where no transition.
  std::vector<uint32_t> delta_;
  StateSetPool targets_;
  std::vector<bool> accepting_;
};

}  // namespace qpwm

#endif  // QPWM_TREE_AUTOMATON_H_
