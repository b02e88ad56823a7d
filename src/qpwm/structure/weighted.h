// Weight assignments W : U^s -> Z and weighted structures (G, W).
//
// Weights are the only part of an instance a watermark may touch: the paper's
// 1-local distortion assumption means every individual weight moves by at
// most +-1, and the d-global assumption bounds the induced drift of the
// aggregate f(a) = sum of weights over a query answer.
#ifndef QPWM_STRUCTURE_WEIGHTED_H_
#define QPWM_STRUCTURE_WEIGHTED_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qpwm/structure/structure.h"
#include "qpwm/util/check.h"

namespace qpwm {

/// Numerical weight. The paper uses naturals; we use int64 so that -1
/// distortions never underflow.
using Weight = int64_t;

/// Largest sum of |w| a loaded table or document may carry. It keeps every
/// +-1 mark, every answer sum and every suspect - original difference inside
/// int64, so loaders reject inputs above it.
inline constexpr uint64_t kMaxTotalWeight = uint64_t{1} << 61;

/// Adds |w| to `total`; false once the total exceeds kMaxTotalWeight.
inline bool AddToTotalWeight(uint64_t& total, Weight w) {
  const uint64_t magnitude =
      w < 0 ? uint64_t{0} - static_cast<uint64_t>(w) : static_cast<uint64_t>(w);
  if (magnitude > kMaxTotalWeight) return false;
  total += magnitude;
  return total <= kMaxTotalWeight;
}

/// W : U^s -> Weight. Dense storage for the common s = 1 case, hashed storage
/// for general s. Unassigned tuples weigh 0.
class WeightMap {
 public:
  /// `s` is the weight arity; `universe_size` enables dense s=1 storage.
  WeightMap(uint32_t s, size_t universe_size);

  uint32_t s() const { return s_; }

  Weight Get(const Tuple& t) const;
  void Set(const Tuple& t, Weight w);
  /// Adds `delta` to the weight of `t`.
  void Add(const Tuple& t, Weight delta);

  /// s = 1 fast paths.
  Weight GetElem(ElemId e) const {
    QPWM_CHECK_EQ(s_, 1u);
    return dense_[e];
  }
  void SetElem(ElemId e, Weight w) {
    QPWM_CHECK_EQ(s_, 1u);
    dense_[e] = w;
  }
  void AddElem(ElemId e, Weight delta) {
    QPWM_CHECK_EQ(s_, 1u);
    dense_[e] += delta;
  }

  /// Maximum |W(t) - other(t)| over all assigned tuples of either map: the
  /// paper's c in the c-local distortion assumption.
  Weight LocalDistortion(const WeightMap& other) const;

  /// True iff both maps assign weights to exactly the same tuple domain
  /// (same arity; same universe for s = 1, same key set otherwise).
  /// Cross-domain arithmetic (averaging, distortion) is undefined.
  bool SameDomain(const WeightMap& other) const;

  /// Visits every tuple with a (possibly zero) explicitly assigned weight, in
  /// a deterministic order (element id for s = 1, lexicographic tuple order
  /// otherwise) — callers serialize weights into reports and canonical forms,
  /// so hash order must never leak out.
  template <typename Fn>  // Fn(const Tuple&, Weight)
  void ForEach(Fn&& fn) const {
    if (s_ == 1) {
      Tuple t(1);
      for (ElemId e = 0; e < dense_.size(); ++e) {
        t[0] = e;
        fn(static_cast<const Tuple&>(t), dense_[e]);
      }
    } else {
      std::vector<const std::pair<const Tuple, Weight>*> entries;
      entries.reserve(sparse_.size());
      // qpwm-lint: allow(unordered-iter) — collection pass; sorted below
      for (const auto& kv : sparse_) entries.push_back(&kv);
      std::sort(entries.begin(), entries.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      for (const auto* kv : entries) fn(kv->first, kv->second);
    }
  }

  bool operator==(const WeightMap& other) const;

 private:
  uint32_t s_;
  std::vector<Weight> dense_;                          // s == 1
  std::unordered_map<Tuple, Weight, TupleHash> sparse_;  // s > 1
};

/// A weighted structure (G, W). The structure is shared by reference: markers
/// produce siblings that differ only in the weight map.
struct WeightedStructure {
  const Structure* structure = nullptr;
  WeightMap weights;

  WeightedStructure(const Structure& s, WeightMap w)
      : structure(&s), weights(std::move(w)) {}
};

}  // namespace qpwm

#endif  // QPWM_STRUCTURE_WEIGHTED_H_
