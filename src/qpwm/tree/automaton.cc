#include "qpwm/tree/automaton.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "qpwm/util/hash.h"

namespace qpwm {
namespace {

constexpr uint32_t kMaxStates = (1u << 21) - 3;

std::vector<uint32_t> IdentityClasses(uint32_t alphabet_size) {
  QPWM_CHECK_LE(alphabet_size, kMaxAlphabetSize);
  std::vector<uint32_t> out(alphabet_size);
  std::iota(out.begin(), out.end(), 0u);
  return out;
}

// Number of classes of a symbol -> class vector, which must be numbered by
// first appearance.
uint32_t CountClasses(const std::vector<uint32_t>& symbol_class) {
  QPWM_CHECK_LE(symbol_class.size(), kMaxAlphabetSize);
  uint32_t next = 0;
  for (uint32_t c : symbol_class) {
    QPWM_CHECK_LE(c, next);
    if (c == next) ++next;
  }
  return next;
}

// (left, right) rows of a table: kAbsentChild plus every real state.
size_t NumRows(uint32_t num_states) {
  QPWM_CHECK_LE(num_states, kMaxStates);
  return (size_t{num_states} + 1) * (size_t{num_states} + 1);
}

// Visits (left, right, class) in the order the bottom-up constructions
// discover states: every class's leaf step, then for each state p in id
// order and each class, (p, *), (*, p), and (p, q), (q, p) for every q <= p.
// `num_states()` is re-read as `fn` discovers states.
template <typename NumStates, typename Fn>
void ForEachStep(uint32_t num_classes, NumStates&& num_states, Fn&& fn) {
  for (uint32_t c = 0; c < num_classes; ++c) fn(kAbsentChild, kAbsentChild, c);
  for (State p = 0; p < num_states(); ++p) {
    for (uint32_t c = 0; c < num_classes; ++c) {
      fn(p, kAbsentChild, c);
      fn(kAbsentChild, p, c);
      for (State q = 0; q <= p; ++q) {
        fn(p, q, c);
        if (q != p) fn(q, p, c);
      }
    }
  }
}

}  // namespace

uint32_t StateSetPool::Intern(const std::vector<State>& s) {
  const uint64_t h = HashBytes(s.data(), s.size() * sizeof(State));
  auto [first, last] = by_hash_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (std::equal(begin(it->second), end(it->second), s.begin(), s.end())) {
      return it->second;
    }
  }
  const auto id = static_cast<uint32_t>(size());
  pool_.insert(pool_.end(), s.begin(), s.end());
  offsets_.push_back(pool_.size());
  by_hash_.emplace(h, id);
  return id;
}

// ---------------------------------------------------------------------------
// Dta
// ---------------------------------------------------------------------------

Dta::Dta(uint32_t num_states, uint32_t alphabet_size)
    : Dta(num_states, IdentityClasses(alphabet_size)) {}

Dta::Dta(uint32_t num_states, std::vector<uint32_t> symbol_class)
    : num_states_(num_states),
      num_classes_(CountClasses(symbol_class)),
      symbol_class_(std::move(symbol_class)),
      delta_(NumRows(num_states) * num_classes_, num_states),
      accepting_(num_states + 1, false) {}

size_t Dta::num_transitions() const {
  return delta_.size() - static_cast<size_t>(std::count(delta_.begin(), delta_.end(), sink()));
}

void Dta::AddTransition(State left, State right, uint32_t cls, State to) {
  QPWM_CHECK(left == kAbsentChild || left < num_states_);
  QPWM_CHECK(right == kAbsentChild || right < num_states_);
  QPWM_CHECK_LT(cls, num_classes_);
  QPWM_CHECK_LE(to, num_states_);
  State& slot = delta_[Slot(left, right, cls)];
  QPWM_CHECK(slot == sink() || slot == to);
  slot = to;
}

std::vector<State> Dta::Run(const BinaryTree& t,
                            const std::vector<uint32_t>& symbols) const {
  QPWM_CHECK_EQ(symbols.size(), t.size());
  std::vector<State> state(t.size(), sink());
  for (NodeId v : t.Postorder()) {
    State l = t.left(v) == kNoNode ? kAbsentChild : state[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : state[t.right(v)];
    state[v] = Step(l, r, symbols[v]);
  }
  return state;
}

State Dta::RunRoot(const BinaryTree& t, const std::vector<uint32_t>& symbols) const {
  return Run(t, symbols)[t.root()];
}

Dta Dta::Complement() const {
  Dta out = *this;
  for (size_t q = 0; q <= num_states_; ++q) out.accepting_[q] = !out.accepting_[q];
  return out;
}

Dta Dta::Product(const Dta& a, const Dta& b, bool conjunction) {
  QPWM_CHECK_EQ(a.alphabet_size(), b.alphabet_size());

  // Joint classes (class in a, class in b), numbered by first appearance.
  std::vector<uint32_t> symbol_class(a.alphabet_size());
  std::vector<std::pair<uint32_t, uint32_t>> joint;
  std::unordered_map<uint64_t, uint32_t> joint_id;
  for (uint32_t sym = 0; sym < symbol_class.size(); ++sym) {
    const uint64_t key = (static_cast<uint64_t>(a.symbol_class_[sym]) << 32) |
                         b.symbol_class_[sym];
    auto [it, inserted] = joint_id.emplace(key, static_cast<uint32_t>(joint.size()));
    if (inserted) joint.emplace_back(a.symbol_class_[sym], b.symbol_class_[sym]);
    symbol_class[sym] = it->second;
  }
  const auto num_joint = static_cast<uint32_t>(joint.size());

  // Reachable pairs, interned through a dense (qa, qb) index (sinks
  // included); it is no larger than the bigger operand's own table. The
  // pair (sink_a, sink_b) is the result's implicit sink and is never
  // interned.
  constexpr State kNew = UINT32_MAX;
  const size_t b_states = size_t{b.num_states_} + 1;
  std::vector<State> intern((size_t{a.num_states_} + 1) * b_states, kNew);
  std::vector<std::pair<State, State>> pairs;
  auto intern_pair = [&](State qa, State qb) -> State {
    State& id = intern[qa * b_states + qb];
    if (id == kNew) {
      id = static_cast<State>(pairs.size());
      pairs.emplace_back(qa, qb);
    }
    return id;
  };
  auto num_pairs = [&] { return static_cast<State>(pairs.size()); };

  // Walking one representative per joint class, in ascending order of its
  // smallest symbol, discovers pairs in the order a per-symbol walk would: a
  // later symbol of a visited class only repeats steps already taken. Step
  // targets are kept in visit order and written once the state count is
  // known.
  std::vector<State> steps;
  ForEachStep(num_joint, num_pairs, [&](State l, State r, uint32_t j) {
    State la = l == kAbsentChild ? kAbsentChild : pairs[l].first;
    State lb = l == kAbsentChild ? kAbsentChild : pairs[l].second;
    State ra = r == kAbsentChild ? kAbsentChild : pairs[r].first;
    State rb = r == kAbsentChild ? kAbsentChild : pairs[r].second;
    State ta = a.StepClass(la, ra, joint[j].first);
    State tb = b.StepClass(lb, rb, joint[j].second);
    const bool to_sink = ta == a.sink() && tb == b.sink();
    steps.push_back(to_sink ? kAbsentChild : intern_pair(ta, tb));
  });

  Dta out(num_pairs(), std::move(symbol_class));
  size_t next = 0;
  ForEachStep(num_joint, num_pairs, [&](State l, State r, uint32_t j) {
    const State to = steps[next++];
    if (to != kAbsentChild) out.delta_[out.Slot(l, r, j)] = to;
  });
  auto combine = [&](bool x, bool y) { return conjunction ? (x && y) : (x || y); };
  for (State q = 0; q < pairs.size(); ++q) {
    out.SetAccepting(q, combine(a.IsAccepting(pairs[q].first), b.IsAccepting(pairs[q].second)));
  }
  out.SetAccepting(out.sink(), combine(a.IsAccepting(a.sink()), b.IsAccepting(b.sink())));
  return out;
}

std::vector<State> Dta::LiveChildren(bool& sink_reached) const {
  std::vector<bool> seen(num_states_, false);
  std::vector<State> live{kAbsentChild};
  sink_reached = false;
  for (size_t known = 0; known < live.size(); ++known) {
    // Pair the newly known child with every known one (itself included).
    const State x = live[known];
    for (size_t i = 0; i <= known; ++i) {
      for (uint32_t cls = 0; cls < num_classes_; ++cls) {
        for (State to : {StepClass(x, live[i], cls), StepClass(live[i], x, cls)}) {
          if (to == sink()) {
            sink_reached = true;
          } else if (!seen[to]) {
            seen[to] = true;
            live.push_back(to);
          }
        }
      }
    }
  }
  return live;
}

bool Dta::IsEmpty() const {
  bool sink_reached = false;
  const std::vector<State> live = LiveChildren(sink_reached);
  if (sink_reached && accepting_[sink()]) return false;
  return std::none_of(live.begin() + 1, live.end(), [&](State q) { return accepting_[q]; });
}

bool Dta::Equivalent(const Dta& a, const Dta& b) {
  QPWM_CHECK_EQ(a.alphabet_size(), b.alphabet_size());
  // symmetric difference empty: (a & !b) | (!a & b)
  Dta left = Product(a, b.Complement(), true);
  Dta right = Product(a.Complement(), b, true);
  return Product(left, right, false).IsEmpty();
}

Nta Dta::ToNta() const {
  Nta out(num_states_, symbol_class_);
  // Target set q is {q}.
  for (State q = 0; q < num_states_; ++q) out.targets_.Intern({q});
  for (size_t slot = 0; slot < delta_.size(); ++slot) {
    if (delta_[slot] != sink()) out.delta_[slot] = delta_[slot];
  }
  out.accepting_ = accepting_;
  return out;
}

Dta Dta::RemapSymbols(const std::vector<uint32_t>& source) const {
  // Old classes renumbered by first appearance among the new symbols.
  std::vector<uint32_t> renum(num_classes_, UINT32_MAX);
  std::vector<uint32_t> old_class;  // new class -> old class
  std::vector<uint32_t> symbol_class(source.size());
  for (size_t t = 0; t < source.size(); ++t) {
    QPWM_CHECK_LT(source[t], alphabet_size());
    const uint32_t old = symbol_class_[source[t]];
    if (renum[old] == UINT32_MAX) {
      renum[old] = static_cast<uint32_t>(old_class.size());
      old_class.push_back(old);
    }
    symbol_class[t] = renum[old];
  }
  Dta out(num_states_, std::move(symbol_class));
  out.delta_ = SelectColumns(old_class);
  out.accepting_ = accepting_;
  return out;
}

std::vector<State> Dta::SelectColumns(const std::vector<uint32_t>& columns) const {
  const size_t k = columns.size();
  std::vector<State> table(NumRows(num_states_) * k);
  for (size_t row = 0; row < NumRows(num_states_); ++row) {
    for (size_t c = 0; c < k; ++c) table[row * k + c] = delta_[row * num_classes_ + columns[c]];
  }
  return table;
}

void Dta::MergeEqualClasses() {
  const size_t rows = NumRows(num_states_);
  std::map<std::vector<State>, uint32_t> id_of;  // column -> merged class
  std::vector<uint32_t> merged(num_classes_);
  std::vector<uint32_t> kept;  // merged class -> first old class
  std::vector<State> column(rows);
  for (uint32_t c = 0; c < num_classes_; ++c) {
    for (size_t row = 0; row < rows; ++row) column[row] = delta_[row * num_classes_ + c];
    auto [it, inserted] = id_of.emplace(column, static_cast<uint32_t>(kept.size()));
    if (inserted) kept.push_back(c);
    merged[c] = it->second;
  }
  if (kept.size() == num_classes_) return;

  // Merged ids follow the old class order, hence first appearance.
  delta_ = SelectColumns(kept);
  for (uint32_t& c : symbol_class_) c = merged[c];
  num_classes_ = static_cast<uint32_t>(kept.size());
}

Dta Dta::Minimize() const {
  const uint32_t n = num_states_ + 1;  // including sink (last id)

  // --- Reachability. `live` lists kAbsentChild and the reachable real
  // states: the children whose transitions count below. The sink always
  // counts as reachable.
  bool sink_reached = false;
  const std::vector<State> live = LiveChildren(sink_reached);
  std::vector<bool> reachable(n, false);
  reachable[sink()] = true;
  for (size_t i = 1; i < live.size(); ++i) reachable[live[i]] = true;

  // --- Partition refinement (Moore). Unreachable states are parked in a
  // throwaway block that never constrains anything (their transitions are
  // ignored). Each round splits every block by its states' role rows: the
  // blocks of q's targets as a child of every class and live partner, left
  // and right, in one fixed order. The fixpoint is the coarsest partition
  // that separates accepting from rejecting states and is a congruence:
  // language equivalence on the reachable states.
  std::vector<uint32_t> block(n);
  for (State q = 0; q < n; ++q) {
    block[q] = !reachable[q] ? 2u : (accepting_[q] ? 1u : 0u);
  }
  size_t num_blocks = 3;

  // The role targets, copied once: one contiguous row per reachable state,
  // ordered by (class, side, live partner). Every step of the sink stays in
  // the sink, so its row is all sink.
  const size_t partners = live.size();
  const size_t row_size = size_t{num_classes_} * 2 * partners;
  std::vector<size_t> role_row(n, 0);
  std::vector<State> roles(partners * row_size, sink());
  role_row[sink()] = (partners - 1) * row_size;
  for (size_t k = 1; k < partners; ++k) {
    const State q = live[k];
    role_row[q] = (k - 1) * row_size;
    State* row = roles.data() + role_row[q];
    // Partner-major, so that each (q, partner) read runs over contiguous
    // classes.
    for (size_t i = 0; i < partners; ++i) {
      const State* as_left = &delta_[Slot(q, live[i], 0)];
      const State* as_right = &delta_[Slot(live[i], q, 0)];
      for (uint32_t cls = 0; cls < num_classes_; ++cls) {
        row[(2 * size_t{cls}) * partners + i] = as_left[cls];
        row[(2 * size_t{cls} + 1) * partners + i] = as_right[cls];
      }
    }
  }

  std::vector<uint32_t> block_size;
  std::vector<uint32_t> row(row_size);  // the current state's target blocks
  for (;;) {
    // New block ids by first appearance in state order; exact matching of
    // (block, row) against the rows of the new blocks' first states, behind
    // a hash. A state alone in its block cannot split, so it skips its row.
    std::unordered_multimap<uint64_t, uint32_t> by_hash;
    std::vector<uint32_t> rep_block;  // new block -> old block
    std::vector<uint32_t> rep_rows;   // rows of the hashed new blocks, flat
    std::vector<size_t> rep_row;      // new block -> offset in rep_rows
    std::vector<uint32_t> next(n);
    block_size.assign(num_blocks, 0);
    for (State q = 0; q < n; ++q) block_size[block[q]] += reachable[q] ? 1 : 0;
    for (State q = 0; q < n; ++q) {
      if (!reachable[q]) continue;
      uint32_t id = UINT32_MAX;
      const bool shared = block_size[block[q]] > 1;
      uint64_t h = block[q];
      if (shared) {
        // Four independent lanes keep the hash off the critical path.
        const State* targets = roles.data() + role_row[q];
        uint64_t lane[4] = {h, 0, 0, 0};
        for (size_t k = 0; k < row_size; ++k) {
          row[k] = block[targets[k]];
          lane[k % 4] = lane[k % 4] * 0x9E3779B97F4A7C15ULL + row[k];
        }
        h = HashCombine(HashCombine(lane[0], lane[1]), HashCombine(lane[2], lane[3]));
        auto [first, last] = by_hash.equal_range(h);
        for (auto it = first; it != last && id == UINT32_MAX; ++it) {
          const uint32_t b = it->second;
          if (rep_block[b] == block[q] &&
              std::equal(row.begin(), row.end(), rep_rows.begin() + rep_row[b])) {
            id = b;
          }
        }
      }
      if (id == UINT32_MAX) {
        id = static_cast<uint32_t>(rep_block.size());
        rep_block.push_back(block[q]);
        rep_row.push_back(rep_rows.size());
        if (shared) {
          by_hash.emplace(h, id);
          rep_rows.insert(rep_rows.end(), row.begin(), row.end());
        }
      }
      next[q] = id;
    }
    const auto junk = static_cast<uint32_t>(rep_block.size());
    for (State q = 0; q < n; ++q) {
      if (!reachable[q]) next[q] = junk;
    }
    const size_t new_count = rep_block.size() + 1;
    const bool stable = new_count == num_blocks;
    block = std::move(next);
    num_blocks = new_count;
    if (stable) break;
  }

  // --- Rebuild: the sink's block becomes the new sink. Blocks renumbered so
  // the sink block lands last; the junk block collapses into the sink as
  // well (unreachable states have no observable behavior).
  const uint32_t sink_block = block[sink()];
  uint32_t junk_block = UINT32_MAX;  // block of unreachable states, if any
  for (State q = 0; q < n; ++q) {
    if (!reachable[q]) {
      junk_block = block[q];
      break;
    }
  }

  std::vector<uint32_t> renum(num_blocks + 1, UINT32_MAX);
  uint32_t next_id = 0;
  for (State q = 0; q < n; ++q) {
    uint32_t b = block[q];
    if (b == sink_block || b == junk_block) continue;
    if (renum[b] == UINT32_MAX) renum[b] = next_id++;
  }
  const uint32_t new_real = next_id;  // new sink id == new_real
  auto map_state = [&](State q) {
    if (q == kAbsentChild) return kAbsentChild;
    const uint32_t b = block[q];
    return (b == sink_block || b == junk_block) ? new_real : renum[b];
  };

  Dta out(new_real, symbol_class_);
  for (State l : live) {
    for (State r : live) {
      const State nl = map_state(l);
      const State nr = map_state(r);
      if (nl == new_real || nr == new_real) continue;  // from-sink: absorbed
      for (uint32_t cls = 0; cls < num_classes_; ++cls) {
        const State to = map_state(StepClass(l, r, cls));
        if (to != new_real) out.AddTransition(nl, nr, cls, to);  // to-sink: implicit
      }
    }
  }
  for (State q = 0; q < n; ++q) {
    if (!reachable[q]) continue;
    out.SetAccepting(map_state(q), accepting_[q]);
  }
  out.MergeEqualClasses();
  return out;
}

// ---------------------------------------------------------------------------
// Nta
// ---------------------------------------------------------------------------

Nta::Nta(uint32_t num_states, uint32_t alphabet_size)
    : Nta(num_states, IdentityClasses(alphabet_size)) {}

Nta::Nta(uint32_t num_states, std::vector<uint32_t> symbol_class)
    : num_states_(num_states),
      num_classes_(CountClasses(symbol_class)),
      symbol_class_(std::move(symbol_class)),
      delta_(NumRows(num_states) * num_classes_, kNoTargets),
      accepting_(num_states + 1, false) {}

void Nta::AddTransition(State left, State right, uint32_t cls, State to) {
  QPWM_CHECK(left == kAbsentChild || left < num_states_);
  QPWM_CHECK(right == kAbsentChild || right < num_states_);
  QPWM_CHECK_LT(cls, num_classes_);
  QPWM_CHECK_LE(to, num_states_);
  uint32_t& slot = delta_[Slot(left, right, cls)];
  std::vector<State> set;
  if (slot != kNoTargets) set.assign(targets_.begin(slot), targets_.end(slot));
  auto pos = std::lower_bound(set.begin(), set.end(), to);
  if (pos != set.end() && *pos == to) return;
  set.insert(pos, to);
  slot = targets_.Intern(set);
}

Nta Nta::Project(uint32_t new_alphabet_size, const std::vector<uint32_t>& image) const {
  QPWM_CHECK_EQ(image.size(), alphabet_size());

  // The set of old classes each new symbol merges, interned (id 0 = the
  // empty set of a symbol without preimage). Growing a set by one class is
  // memoized, so this is one hash lookup per old symbol.
  std::vector<std::vector<uint32_t>> sets{{}};
  std::map<std::vector<uint32_t>, uint32_t> set_id{{{}, 0}};
  std::unordered_map<uint64_t, uint32_t> grown_by;  // (set, class) -> set
  std::vector<uint32_t> set_of(new_alphabet_size, 0);
  for (uint32_t s = 0; s < image.size(); ++s) {
    QPWM_CHECK_LT(image[s], new_alphabet_size);
    uint32_t& set = set_of[image[s]];
    const uint32_t c = symbol_class_[s];
    auto [it, inserted] = grown_by.emplace((static_cast<uint64_t>(set) << 32) | c, 0);
    if (inserted) {
      std::vector<uint32_t> grown = sets[set];
      auto pos = std::lower_bound(grown.begin(), grown.end(), c);
      if (pos == grown.end() || *pos != c) grown.insert(pos, c);
      auto [sit, fresh] = set_id.emplace(grown, static_cast<uint32_t>(sets.size()));
      if (fresh) sets.push_back(std::move(grown));
      it->second = sit->second;
    }
    set = it->second;
  }

  // A set's merged column: per (left, right) row, the union of its
  // classes' targets, plus the sink when one of them has no transition
  // there. The result's classes are the distinct merged columns, numbered
  // by first appearance among the new symbols.
  const size_t rows = NumRows(num_states_);
  StateSetPool targets;
  std::map<std::vector<uint32_t>, uint32_t> class_of_column;
  std::vector<const std::vector<uint32_t>*> columns;  // by class
  std::vector<uint32_t> class_of_set(sets.size(), UINT32_MAX);
  std::vector<uint32_t> symbol_class(new_alphabet_size);
  std::vector<State> merged;
  for (uint32_t t = 0; t < new_alphabet_size; ++t) {
    uint32_t& cls = class_of_set[set_of[t]];
    if (cls == UINT32_MAX) {
      const std::vector<uint32_t>& classes = sets[set_of[t]];
      std::vector<uint32_t> column(rows, kNoTargets);
      for (size_t row = 0; row < rows; ++row) {
        merged.clear();
        size_t present = 0;
        for (uint32_t c : classes) {
          const uint32_t id = delta_[row * num_classes_ + c];
          if (id == kNoTargets) continue;
          ++present;
          merged.insert(merged.end(), targets_.begin(id), targets_.end(id));
        }
        if (present == 0) continue;
        if (present < classes.size()) merged.push_back(sink());
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        column[row] = targets.Intern(merged);
      }
      auto [it, inserted] = class_of_column.emplace(
          std::move(column), static_cast<uint32_t>(class_of_column.size()));
      if (inserted) columns.push_back(&it->first);
      cls = it->second;
    }
    symbol_class[t] = cls;
  }

  Nta out(num_states_, std::move(symbol_class));
  out.targets_ = std::move(targets);
  const size_t k = columns.size();
  for (size_t row = 0; row < rows; ++row) {
    for (size_t c = 0; c < k; ++c) out.delta_[row * k + c] = (*columns[c])[row];
  }
  out.accepting_ = accepting_;
  return out;
}

Dta Nta::Determinize() const {
  StateSetPool subsets;
  auto num_subsets = [&] { return static_cast<State>(subsets.size()); };

  // When the sink is non-accepting, the {sink} subset is pure garbage: it
  // absorbs (every step from it is {sink}) and never accepts, so it can be
  // the *result's* implicit sink — its transitions are neither stored nor
  // expanded. This is what keeps subset construction tractable on sparse
  // automata.
  const bool garbage_sink = !accepting_[sink()];
  constexpr State kToSink = UINT32_MAX;

  // Allocation-free inner loop: `seen` is a membership bitmap, `subset`
  // collects the union of targets until it is interned.
  std::vector<uint8_t> seen(num_states_ + 1, 0);
  std::vector<State> subset;
  auto add = [&](State t) {
    if (!seen[t]) {
      seen[t] = 1;
      subset.push_back(t);
    }
  };
  auto add_targets = [&](State ql, State qr, uint32_t cls) {
    if (ql == sink() || qr == sink()) return add(sink());
    const uint32_t id = delta_[Slot(ql, qr, cls)];
    if (id == kNoTargets) return add(sink());
    for (const State* t = targets_.begin(id); t != targets_.end(id); ++t) add(*t);
  };
  // Absent children stand for the one-element "subset" {kAbsentChild}.
  const State absent[] = {kAbsentChild};
  auto members = [&](State p) -> std::pair<const State*, const State*> {
    if (p == kAbsentChild) return {absent, absent + 1};
    return {subsets.begin(p), subsets.end(p)};
  };

  // As in Dta::Product, one walk per class in id order discovers subsets in
  // the order a per-symbol walk would; step targets are kept in visit order.
  std::vector<State> steps;
  ForEachStep(num_classes_, num_subsets, [&](State l, State r, uint32_t cls) {
    // Pool pointers stay valid until the next Intern.
    auto [lb, le] = members(l);
    auto [rb, re] = members(r);
    for (const State* ql = lb; ql != le; ++ql) {
      for (const State* qr = rb; qr != re; ++qr) add_targets(*ql, *qr, cls);
    }
    for (State t : subset) seen[t] = 0;
    std::sort(subset.begin(), subset.end());
    const bool to_sink = garbage_sink && subset.size() == 1 && subset[0] == sink();
    steps.push_back(to_sink ? kToSink : subsets.Intern(subset));
    subset.clear();
  });

  Dta out(num_subsets(), symbol_class_);
  size_t next = 0;
  ForEachStep(num_classes_, num_subsets, [&](State l, State r, uint32_t cls) {
    const State to = steps[next++];
    if (to != kToSink) out.delta_[out.Slot(l, r, cls)] = to;
  });
  for (State s = 0; s < subsets.size(); ++s) {
    bool acc = false;
    for (const State* q = subsets.begin(s); q != subsets.end(s); ++q) {
      acc = acc || accepting_[*q];
    }
    out.SetAccepting(s, acc);
  }
  return out;
}

}  // namespace qpwm
