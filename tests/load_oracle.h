// Reference implementations of the relational load path and of QueryIndex
// interning, written the straightforward way: ToWeightedStructure interns
// every key string, then re-looks each one up per row and inserts one tuple
// per row into a hashed relation that Seal() sorts; QueryIndex interning
// keys parameters and active elements by whole tuples in hash maps, for every
// arity. Tests compare the library's bulk load and dense unary interning
// against these field by field.
#ifndef QPWM_TESTS_LOAD_ORACLE_H_
#define QPWM_TESTS_LOAD_ORACLE_H_

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "qpwm/logic/query.h"
#include "qpwm/relational/table.h"
#include "qpwm/structure/structure.h"
#include "qpwm/util/status.h"

namespace qpwm::oracle {

/// Per-row translation of Section 1: one relation per table over its key
/// columns, ids in first-appearance order, weights on the declared keys.
[[nodiscard]] inline Result<RelationalInstance> ToWeightedStructure(const Database& db) {
  std::unordered_map<std::string, ElemId> intern;
  std::vector<std::string> names;
  for (const Table& t : db.tables()) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < t.columns().size(); ++c) {
        if (t.columns()[c].role != ColumnRole::kKey) continue;
        auto [it, inserted] =
            intern.emplace(t.KeyAt(r, c), static_cast<ElemId>(names.size()));
        if (inserted) names.push_back(t.KeyAt(r, c));
      }
    }
  }

  Signature sig;
  for (const Table& t : db.tables()) {
    uint32_t key_arity = 0;
    for (const ColumnSpec& c : t.columns()) {
      if (c.role == ColumnRole::kKey) ++key_arity;
    }
    sig.AddRelation(t.name(), key_arity);
  }

  RelationalInstance out;
  out.structure = Structure(std::move(sig), names.size());
  for (ElemId e = 0; e < names.size(); ++e) out.structure.SetElementName(e, names[e]);
  out.weights = WeightMap(1, names.size());
  out.has_weight.assign(names.size(), false);
  for (size_t ti = 0; ti < db.tables().size(); ++ti) {
    const Table& t = db.tables()[ti];
    for (size_t r = 0; r < t.num_rows(); ++r) {
      Tuple tuple;
      for (size_t c = 0; c < t.columns().size(); ++c) {
        if (t.columns()[c].role == ColumnRole::kKey) {
          tuple.push_back(intern.at(t.KeyAt(r, c)));
        }
      }
      out.structure.AddTuple(ti, tuple);

      for (size_t c : t.WeightColumns()) {
        size_t key_col = t.ColumnIndex(t.columns()[c].weight_of).ValueOrDie();
        ElemId e = intern.at(t.KeyAt(r, key_col));
        Weight w = t.WeightAt(r, c);
        if (out.has_weight[e] && out.weights.GetElem(e) != w) {
          return Status::InvalidArgument("element '" + names[e] +
                                         "' receives two different weights");
        }
        out.has_weight[e] = true;
        out.weights.SetElem(e, w);
      }
    }
  }
  out.structure.Seal();
  return out;
}

/// QueryIndex's interning with tuple-keyed maps for every arity: serial
/// evaluation in domain order, first position wins for a repeated parameter.
class QueryIndexInterning {
 public:
  QueryIndexInterning(const Structure& g, const ParametricQuery& query,
                      const std::vector<Tuple>& domain) {
    results_.resize(domain.size());
    for (size_t i = 0; i < domain.size(); ++i) {
      param_index_.emplace(domain[i], static_cast<uint32_t>(i));
      auto& row = results_[i];
      for (Tuple& t : query.Evaluate(g, domain[i])) {
        auto [it, inserted] =
            active_index_.emplace(t, static_cast<uint32_t>(active_.size()));
        if (inserted) active_.push_back(std::move(t));
        row.push_back(it->second);
      }
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
    containing_.resize(active_.size());
    for (size_t i = 0; i < results_.size(); ++i) {
      for (uint32_t w : results_[i]) containing_[w].push_back(static_cast<uint32_t>(i));
    }
  }

  size_t num_active() const { return active_.size(); }
  const Tuple& active_element(size_t w) const { return active_[w]; }
  const std::vector<uint32_t>& ResultFor(size_t i) const { return results_[i]; }
  const std::vector<uint32_t>& ParamsContaining(size_t w) const { return containing_[w]; }

  std::optional<size_t> FindParam(const Tuple& params) const {
    auto it = param_index_.find(params);
    if (it == param_index_.end()) return std::nullopt;
    return it->second;
  }
  std::optional<size_t> FindActive(const Tuple& t) const {
    auto it = active_index_.find(t);
    if (it == active_index_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<Tuple, uint32_t, TupleHash> param_index_;
  std::vector<Tuple> active_;
  std::unordered_map<Tuple, uint32_t, TupleHash> active_index_;
  std::vector<std::vector<uint32_t>> results_;
  std::vector<std::vector<uint32_t>> containing_;
};

}  // namespace qpwm::oracle

#endif  // QPWM_TESTS_LOAD_ORACLE_H_
