#include "qpwm/core/answers.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {

QueryIndex::QueryIndex(const Structure& g, const ParametricQuery& query,
                       // qpwm-lint: allow(legacy-tuple-vector) — sink parameter; the index owns its query-parameter domain
                       std::vector<Tuple> domain)
    : g_(&g), query_(&query), domain_(std::move(domain)) {
  // Query evaluation — the dominant cost — runs over the whole domain in
  // parallel (Evaluate is const and thread-safe, see query.h). Interning
  // result tuples into dense active ids happens serially in domain order, so
  // the assigned ids, rows and inverse index are bit-identical to the serial
  // build for any thread count.
  std::vector<std::vector<Tuple>> raw = ParallelMap<std::vector<Tuple>>(
      domain_.size(), [&](size_t i) {
        QPWM_CHECK_EQ(domain_[i].size(), query.ParamArity());
        return query.Evaluate(g, domain_[i]);
      });

  // Unary parameters and results intern through dense per-element arrays
  // (one read per tuple); other arities through tuple-keyed hash maps.
  // Duplicate domain entries resolve to their first position either way.
  const bool unary_params = query.ParamArity() == 1;
  const bool unary_results = query.ResultArity() == 1;
  if (unary_params) param_of_elem_.assign(g.universe_size(), -1);
  if (unary_results) active_of_elem_.assign(g.universe_size(), -1);
  results_.resize(domain_.size());
  for (size_t i = 0; i < domain_.size(); ++i) {
    if (unary_params) {
      const ElemId p = domain_[i][0];
      QPWM_CHECK_LT(p, param_of_elem_.size());
      if (param_of_elem_[p] < 0) param_of_elem_[p] = static_cast<int32_t>(i);
    } else {
      param_index_.emplace(domain_[i], static_cast<uint32_t>(i));
    }
    auto& row = results_[i];
    row.reserve(raw[i].size());
    for (Tuple& t : raw[i]) {
      QPWM_CHECK_EQ(t.size(), query.ResultArity());
      if (unary_results) {
        int32_t& id = active_of_elem_[t[0]];
        if (id < 0) {
          id = static_cast<int32_t>(active_.size());
          active_.push_back(std::move(t));
        }
        row.push_back(static_cast<uint32_t>(id));
        continue;
      }
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
    for (uint32_t w : results_[i]) {
      containing_[w].push_back(static_cast<uint32_t>(i));
    }
  }
}

Result<size_t> QueryIndex::FindParam(const Tuple& params) const {
  if (query_->ParamArity() == 1) {
    if (params.size() == 1 && params[0] < param_of_elem_.size() &&
        param_of_elem_[params[0]] >= 0) {
      return static_cast<size_t>(param_of_elem_[params[0]]);
    }
    return Status::NotFound("parameter outside domain");
  }
  auto it = param_index_.find(params);
  if (it == param_index_.end()) return Status::NotFound("parameter outside domain");
  return static_cast<size_t>(it->second);
}

Result<size_t> QueryIndex::FindActive(const Tuple& t) const {
  if (query_->ResultArity() == 1) {
    const int32_t id = t.size() == 1 ? ActiveIdOfElem(t[0]) : -1;
    if (id < 0) return Status::NotFound("tuple is not an active element");
    return static_cast<size_t>(id);
  }
  auto it = active_index_.find(t);
  if (it == active_index_.end()) return Status::NotFound("tuple is not an active element");
  return static_cast<size_t>(it->second);
}

bool QueryIndex::Contains(size_t param_idx, size_t w) const {
  const auto& row = results_[param_idx];
  return std::binary_search(row.begin(), row.end(), static_cast<uint32_t>(w));
}

Weight QueryIndex::SumWeights(size_t param_idx, const WeightMap& weights) const {
  Weight sum = 0;
  for (uint32_t w : results_[param_idx]) sum += weights.Get(active_[w]);
  return sum;
}

AnswerSet QueryIndex::AnswersFor(size_t param_idx, const WeightMap& weights) const {
  AnswerSet out;
  out.reserve(results_[param_idx].size());
  for (uint32_t w : results_[param_idx]) {
    out.push_back({active_[w], weights.Get(active_[w])});
  }
  return out;
}

AnswerSet QueryIndex::AnswersFor(size_t param_idx, const DenseWeightView& view) const {
  AnswerSet out;
  out.reserve(results_[param_idx].size());
  for (uint32_t w : results_[param_idx]) {
    out.push_back({active_[w], view.at(w)});
  }
  return out;
}

void QueryIndex::AppendAnswersFlat(size_t param_idx, const DenseWeightView& view,
                                   FlatAnswers& out) const {
  for (uint32_t w : results_[param_idx]) {
    out.AppendRow(active_[w], view.at(w));
  }
}

DenseWeightView::DenseWeightView(const QueryIndex& index, const WeightMap& weights) {
  dense_.reserve(index.num_active());
  for (size_t w = 0; w < index.num_active(); ++w) {
    dense_.push_back(weights.Get(index.active_element(w)));
  }
}

void AnswerServer::AnswerAllFlat(const std::vector<Tuple>& params,
                                 FlatAnswers& out) const {
  out.Clear();
  for (const Tuple& p : params) {
    for (const AnswerRow& row : Answer(p)) out.AppendRow(row.element, row.weight);
    out.FinishParam();
  }
}

AnswerSet HonestServer::Answer(const Tuple& params) const {
  // A real server would evaluate the query; ours serves from the shared
  // index, which is observationally identical and keeps benches fast.
  auto idx = index_->FindParam(params);
  if (idx.ok()) return index_->AnswersFor(idx.value(), view_);
  // Parameter outside the registered domain: evaluate directly (the dense
  // view only covers the index's active elements).
  AnswerSet out;
  for (Tuple& t : index_->query().Evaluate(index_->structure(), params)) {
    Weight w = weights_.Get(t);
    out.push_back({std::move(t), w});
  }
  return out;
}

void HonestServer::AnswerAllFlat(const std::vector<Tuple>& params,
                                 FlatAnswers& out) const {
  out.Clear();
  for (const Tuple& p : params) {
    auto idx = index_->FindParam(p);
    if (idx.ok()) {
      index_->AppendAnswersFlat(idx.value(), view_, out);
    } else {
      for (const Tuple& t : index_->query().Evaluate(index_->structure(), p)) {
        out.AppendRow(t, weights_.Get(t));
      }
    }
    out.FinishParam();
  }
}

}  // namespace qpwm
