#include "qpwm/structure/structure.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string_view>

namespace qpwm {

uint64_t GenerationStamp::Next() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void Relation::RebuildSlots(size_t capacity_for) const {
  size_t want = 16;
  while (want < 2 * (capacity_for + 1)) want <<= 1;
  slots_.assign(want, kEmptySlot);
  indexed_count_ = 0;
  for (size_t i = 0; i < count_; ++i) InsertSlot(i);
  indexed_count_ = count_;
}

void Relation::InsertSlot(size_t index) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(HashSpan(flat_.data() + index * arity_)) & mask;
  while (slots_[pos] != kEmptySlot) pos = (pos + 1) & mask;
  slots_[pos] = static_cast<uint32_t>(index);
}

bool Relation::ContainsSpan(const ElemId* d) const {
  if (indexed_count_ != count_ || slots_.empty()) RebuildSlots(count_);
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(HashSpan(d)) & mask;
  while (slots_[pos] != kEmptySlot) {
    if (EqualSpan(slots_[pos], d)) return true;
    pos = (pos + 1) & mask;
  }
  return false;
}

void Relation::AddSpan(const ElemId* d) {
  // Keep the probe table at most half full so lookups stay O(1).
  if (indexed_count_ != count_ || slots_.size() < 2 * (count_ + 1)) {
    RebuildSlots(count_ + 1);
  }
  const size_t mask = slots_.size() - 1;
  size_t pos = static_cast<size_t>(HashSpan(d)) & mask;
  while (slots_[pos] != kEmptySlot) {
    if (EqualSpan(slots_[pos], d)) return;  // deduplicated
    pos = (pos + 1) & mask;
  }
  slots_[pos] = static_cast<uint32_t>(count_);
  flat_.insert(flat_.end(), d, d + arity_);
  ++count_;
  ++indexed_count_;
}

void Relation::SetTuplesUnchecked(const std::vector<Tuple>& tuples) {
  flat_.clear();
  flat_.reserve(tuples.size() * arity_);
  for (const Tuple& t : tuples) {
    QPWM_CHECK_EQ(t.size(), arity_);
    flat_.insert(flat_.end(), t.begin(), t.end());
  }
  count_ = tuples.size();
  slots_.clear();
  indexed_count_ = 0;
}

void Relation::SwapFlatUnchecked(std::vector<ElemId>& flat) {
  QPWM_CHECK(arity_ > 0 || flat.empty());
  flat_.swap(flat);
  count_ = arity_ == 0 ? 0 : flat_.size() / arity_;
  QPWM_CHECK_EQ(count_ * arity_, flat_.size());
  slots_.clear();
  indexed_count_ = 0;
}

void SortUniqueRecords(std::vector<ElemId>& flat, uint32_t arity) {
  if (arity == 0 || flat.size() <= arity) return;
  if (arity == 1) {
    std::sort(flat.begin(), flat.end());
    flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
    return;
  }
  // Record sort via an index permutation, gathered into a fresh buffer
  // (records are small; a gather beats in-place cycle chasing).
  const size_t count = flat.size() / arity;
  std::vector<uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  const ElemId* base = flat.data();
  auto record = [base, arity](uint32_t i) { return base + size_t{i} * arity; };
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return std::lexicographical_compare(record(x), record(x) + arity, record(y),
                                        record(y) + arity);
  });
  std::vector<ElemId> sorted;
  sorted.reserve(flat.size());
  for (size_t i = 0; i < count; ++i) {
    const ElemId* rec = record(order[i]);
    if (i > 0 && std::equal(rec, rec + arity, record(order[i - 1]))) continue;
    sorted.insert(sorted.end(), rec, rec + arity);
  }
  flat = std::move(sorted);
}

void Relation::Seal() {
  if (count_ > 1 && arity_ > 0) {
    SortUniqueRecords(flat_, arity_);  // records are distinct: nothing dropped
    // Record positions changed; the membership index rebuilds on next use.
    slots_.clear();
    indexed_count_ = 0;
  }
}

void Relation::ClearKeepCapacity() {
  flat_.clear();
  count_ = 0;
  slots_.clear();
  indexed_count_ = 0;
}

Structure::Structure(Signature sig, size_t universe_size)
    : sig_(std::move(sig)), n_(universe_size) {
  relations_.reserve(sig_.size());
  for (const auto& sym : sig_.symbols()) {
    relations_.emplace_back(sym.name, sym.arity);
  }
}

const Relation& Structure::relation(const std::string& name) const {
  auto idx = sig_.Find(name);
  QPWM_CHECK(idx.ok());
  return relations_[idx.value()];
}

void Structure::AddTuple(size_t rel, const Tuple& t) {
  QPWM_CHECK_LT(rel, relations_.size());
  for (ElemId e : t) QPWM_CHECK_LT(e, n_);
  gen_.Bump();
  relations_[rel].Add(t);
}

void Structure::AddTuple(const std::string& rel, const Tuple& t) {
  auto idx = sig_.Find(rel);
  QPWM_CHECK(idx.ok());
  AddTuple(idx.value(), t);
}

void Structure::Seal() {
  gen_.Bump();  // sorting reorders tuple indices cached per structure
  for (auto& r : relations_) r.Seal();
}

void Structure::ResetUniverse(size_t universe_size) {
  n_ = universe_size;
  for (auto& r : relations_) r.ClearKeepCapacity();
  element_names_.clear();
  name_slots_.clear();
  named_count_ = 0;
  gen_.Bump();
}

namespace {

// Name-index primitives over (slots, names); see Structure::name_slots_.
constexpr ElemId kNoName = UINT32_MAX;

size_t NameHash(std::string_view name) { return std::hash<std::string_view>{}(name); }

// Slot holding the id named `name`, or the empty slot ending its probe
// chain. `slots` must not be empty.
size_t ProbeName(const std::vector<ElemId>& slots, const std::vector<std::string>& names,
                 std::string_view name) {
  const size_t mask = slots.size() - 1;
  size_t pos = NameHash(name) & mask;
  while (slots[pos] != kNoName && names[slots[pos]] != name) pos = (pos + 1) & mask;
  return pos;
}

// Slot holding `e`, or slots.size() if `e` is not indexed.
size_t FindNameSlot(const std::vector<ElemId>& slots,
                    const std::vector<std::string>& names, ElemId e) {
  if (slots.empty()) return 0;
  const size_t mask = slots.size() - 1;
  for (size_t pos = NameHash(names[e]) & mask; slots[pos] != kNoName;
       pos = (pos + 1) & mask) {
    if (slots[pos] == e) return pos;
  }
  return slots.size();
}

// Indexes `e` under names[e], replacing an element of the same name (last
// writer wins). Returns true if a new slot was taken. The caller keeps the
// table at most half full.
bool InsertName(std::vector<ElemId>& slots, const std::vector<std::string>& names,
                ElemId e) {
  const size_t pos = ProbeName(slots, names, names[e]);
  const bool fresh = slots[pos] == kNoName;
  slots[pos] = e;
  return fresh;
}

// Empties slot `pos`; backward-shift deletion keeps every probe chain intact.
void EraseNameSlot(std::vector<ElemId>& slots, const std::vector<std::string>& names,
                   size_t pos) {
  const size_t mask = slots.size() - 1;
  size_t hole = pos;
  for (size_t next = (pos + 1) & mask; slots[next] != kNoName; next = (next + 1) & mask) {
    // An entry may move into the hole only if its home slot lies outside the
    // cyclic range (hole, next]; otherwise its probe chain would break.
    const size_t home = NameHash(names[slots[next]]) & mask;
    const bool home_in_range =
        hole <= next ? (hole < home && home <= next) : (hole < home || home <= next);
    if (!home_in_range) {
      slots[hole] = slots[next];
      hole = next;
    }
  }
  slots[hole] = kNoName;
}

// Re-creates the table with room for `count` names (a power of two at least
// 2 * (count + 1)), re-inserting the ids it held.
void ResizeNameSlots(std::vector<ElemId>& slots, const std::vector<std::string>& names,
                     size_t count) {
  size_t want = 16;
  while (want < 2 * (count + 1)) want <<= 1;
  std::vector<ElemId> old(want, kNoName);
  old.swap(slots);
  const size_t mask = want - 1;
  for (ElemId e : old) {
    if (e == kNoName) continue;
    size_t pos = NameHash(names[e]) & mask;
    while (slots[pos] != kNoName) pos = (pos + 1) & mask;
    slots[pos] = e;
  }
}

}  // namespace

void Structure::SetElementName(ElemId e, std::string name) {
  QPWM_CHECK_LT(e, n_);
  if (element_names_.empty()) element_names_.resize(n_);
  // Unindex under the old name before the slot's key changes.
  const size_t old_slot = FindNameSlot(name_slots_, element_names_, e);
  if (old_slot < name_slots_.size()) {
    EraseNameSlot(name_slots_, element_names_, old_slot);
    --named_count_;
  }
  element_names_[e] = std::move(name);
  if (name_slots_.size() < 2 * (named_count_ + 1)) {
    ResizeNameSlots(name_slots_, element_names_, named_count_ + 1);
  }
  if (InsertName(name_slots_, element_names_, e)) ++named_count_;
  // Names feed serialized reports and suspect re-alignment; a rename is a
  // mutation like any other, or pointer-keyed caches keep serving the old
  // identity.
  gen_.Bump();
}

void Structure::ReserveElementNames(size_t count) {
  element_names_.reserve(count);
  if (name_slots_.size() < 2 * (count + 1)) {
    ResizeNameSlots(name_slots_, element_names_, count);
  }
  gen_.Bump();
}

ElemId Structure::InternElement(std::string_view name) {
  QPWM_CHECK_EQ(element_names_.size(), n_);
  if (name_slots_.size() < 2 * (named_count_ + 1)) {
    ResizeNameSlots(name_slots_, element_names_, named_count_ + 1);
  }
  const size_t pos = ProbeName(name_slots_, element_names_, name);
  if (name_slots_[pos] != kNoName) return name_slots_[pos];
  const ElemId e = static_cast<ElemId>(n_++);
  element_names_.emplace_back(name);
  name_slots_[pos] = e;
  ++named_count_;
  gen_.Bump();
  return e;
}

const std::string& Structure::ElementName(ElemId e) const {
  static const std::string kEmpty;
  if (element_names_.empty() || e >= element_names_.size()) return kEmpty;
  return element_names_[e];
}

Result<ElemId> Structure::FindElement(std::string_view name) const {
  if (!name_slots_.empty()) {
    const size_t pos = ProbeName(name_slots_, element_names_, name);
    if (name_slots_[pos] != kNoName) return name_slots_[pos];
  }
  return Status::NotFound("no element named '" + std::string(name) + "'");
}

size_t Structure::TotalTuples() const {
  size_t total = 0;
  for (const auto& r : relations_) total += r.size();
  return total;
}

size_t Structure::BytesResident() const {
  size_t total = relations_.capacity() * sizeof(Relation);
  for (const auto& r : relations_) total += r.BytesResident();
  return total;
}

IncidenceIndex::IncidenceIndex(const Structure& s) {
  const size_t n = s.universe_size();
  // Two-pass CSR build: count each element's entries (each distinct element
  // once per tuple even if it repeats there — arities are tiny, so the
  // repeat check is a linear scan over earlier positions), prefix-sum into
  // offsets, then fill with a per-element cursor. The fill visits tuples in
  // (relation, tuple index) order, so each element's entry list comes out
  // sorted exactly like the legacy per-element push_back build.
  offsets_.assign(n + 1, 0);
  auto first_occurrence = [](TupleRef t, size_t pos) {
    for (size_t q = 0; q < pos; ++q) {
      if (t[q] == t[pos]) return false;
    }
    return true;
  };
  for (size_t r = 0; r < s.num_relations(); ++r) {
    const TupleList tuples = s.relation(r).tuples();
    for (size_t ti = 0; ti < tuples.size(); ++ti) {
      const TupleRef t = tuples[ti];
      for (size_t pos = 0; pos < t.size(); ++pos) {
        if (first_occurrence(t, pos)) ++offsets_[t[pos] + 1];
      }
    }
  }
  for (size_t e = 0; e < n; ++e) offsets_[e + 1] += offsets_[e];
  entries_.resize(offsets_[n]);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t r = 0; r < s.num_relations(); ++r) {
    const TupleList tuples = s.relation(r).tuples();
    for (size_t ti = 0; ti < tuples.size(); ++ti) {
      const TupleRef t = tuples[ti];
      for (size_t pos = 0; pos < t.size(); ++pos) {
        if (first_occurrence(t, pos)) {
          entries_[cursor[t[pos]]++] = {static_cast<uint32_t>(r),
                                       static_cast<uint32_t>(ti)};
        }
      }
    }
  }
}

}  // namespace qpwm
