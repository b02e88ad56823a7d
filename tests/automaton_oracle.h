// Reference implementations of Dta::Product and Dta::Minimize that walk the
// alphabet one symbol at a time, as the library did before automata grouped
// symbols into classes. Tests compare the class-based library code against
// them transition for transition: same state numbering, same Step table,
// same accepting flags.
#ifndef QPWM_TESTS_AUTOMATON_ORACLE_H_
#define QPWM_TESTS_AUTOMATON_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qpwm/tree/automaton.h"

namespace qpwm::oracle {

/// Per-symbol product: pairs are discovered by walking every symbol.
inline Dta Product(const Dta& a, const Dta& b, bool conjunction) {
  QPWM_CHECK_EQ(a.alphabet_size(), b.alphabet_size());
  const uint32_t alphabet = a.alphabet_size();
  std::unordered_map<uint64_t, State> intern;
  std::vector<std::pair<State, State>> pairs;
  auto intern_pair = [&](State qa, State qb) -> State {
    auto [it, inserted] = intern.emplace((static_cast<uint64_t>(qa) << 32) | qb,
                                         static_cast<State>(pairs.size()));
    if (inserted) pairs.emplace_back(qa, qb);
    return it->second;
  };
  std::vector<std::tuple<State, State, uint32_t, State>> transitions;
  auto step_pair = [&](State la, State lb, State ra, State rb, uint32_t sym, State lhs,
                       State rhs) {
    State ta = a.Step(la, ra, sym);
    State tb = b.Step(lb, rb, sym);
    if (ta == a.sink() && tb == b.sink()) return;
    transitions.emplace_back(lhs, rhs, sym, intern_pair(ta, tb));
  };
  for (uint32_t sym = 0; sym < alphabet; ++sym) {
    step_pair(kAbsentChild, kAbsentChild, kAbsentChild, kAbsentChild, sym, kAbsentChild,
              kAbsentChild);
  }
  for (size_t processed = 0; processed < pairs.size();) {
    State p = static_cast<State>(processed++);
    auto [pa, pb] = pairs[p];
    for (uint32_t sym = 0; sym < alphabet; ++sym) {
      step_pair(pa, pb, kAbsentChild, kAbsentChild, sym, p, kAbsentChild);
      step_pair(kAbsentChild, kAbsentChild, pa, pb, sym, kAbsentChild, p);
      for (State q = 0; q <= p; ++q) {
        auto [qa, qb] = pairs[q];
        step_pair(pa, pb, qa, qb, sym, p, q);
        if (q != p) step_pair(qa, qb, pa, pb, sym, q, p);
      }
    }
  }
  Dta out(static_cast<uint32_t>(pairs.size()), alphabet);
  for (const auto& [l, r, sym, to] : transitions) out.AddTransition(l, r, sym, to);
  auto combine = [&](bool x, bool y) { return conjunction ? (x && y) : (x || y); };
  for (State q = 0; q < pairs.size(); ++q) {
    out.SetAccepting(q, combine(a.IsAccepting(pairs[q].first), b.IsAccepting(pairs[q].second)));
  }
  out.SetAccepting(out.sink(), combine(a.IsAccepting(a.sink()), b.IsAccepting(b.sink())));
  return out;
}

/// Transitions into real states, one entry per symbol, ordered by
/// (left, right, symbol) with kAbsentChild first.
inline std::vector<std::tuple<State, State, uint32_t, State>> PerSymbolTransitions(
    const Dta& d) {
  std::vector<State> children{kAbsentChild};
  for (State q = 0; q < d.num_states(); ++q) children.push_back(q);
  std::vector<std::tuple<State, State, uint32_t, State>> out;
  for (State l : children) {
    for (State r : children) {
      for (uint32_t sym = 0; sym < d.alphabet_size(); ++sym) {
        const State to = d.Step(l, r, sym);
        if (to != d.sink()) out.emplace_back(l, r, sym, to);
      }
    }
  }
  return out;
}

/// Per-symbol partition refinement with exact (side, symbol, partner state,
/// target block) signatures, targets in the sink's block left out; block ids
/// by first appearance in state order. Keying roles by the partner state
/// (not its block) makes the fixpoint a congruence, hence language
/// equivalence.
inline Dta Minimize(const Dta& d) {
  const uint32_t n = d.num_states() + 1;
  const State sink = d.sink();
  const auto trans = PerSymbolTransitions(d);
  std::vector<bool> reachable(n, false);
  reachable[sink] = true;
  auto ok = [&](State q) { return q == kAbsentChild || reachable[q]; };
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [l, r, sym, to] : trans) {
      if (ok(l) && ok(r) && !reachable[to]) reachable[to] = changed = true;
    }
  }
  std::vector<uint32_t> cls(n);
  for (State q = 0; q < n; ++q) {
    cls[q] = !reachable[q] ? 2u : (d.IsAccepting(q) ? 1u : 0u);
  }
  size_t num_classes = 3;
  using Sig = std::tuple<uint8_t, uint32_t, uint32_t, uint32_t>;
  for (;;) {
    const uint32_t sink_cls = cls[sink];
    std::vector<std::vector<Sig>> sig(n);
    for (const auto& [l, r, sym, to] : trans) {
      if (!ok(l) || !ok(r) || cls[to] == sink_cls) continue;
      uint32_t lc = l == kAbsentChild ? UINT32_MAX : l;
      uint32_t rc = r == kAbsentChild ? UINT32_MAX : r;
      if (l != kAbsentChild) sig[l].emplace_back(0, sym, rc, cls[to]);
      if (r != kAbsentChild) sig[r].emplace_back(1, sym, lc, cls[to]);
    }
    std::map<std::pair<uint32_t, std::vector<Sig>>, uint32_t> ids;
    std::vector<uint32_t> next(n, UINT32_MAX);
    for (State q = 0; q < n; ++q) {
      if (!reachable[q]) continue;
      std::sort(sig[q].begin(), sig[q].end());
      sig[q].erase(std::unique(sig[q].begin(), sig[q].end()), sig[q].end());
      auto key = std::make_pair(cls[q], std::move(sig[q]));
      next[q] = ids.emplace(std::move(key), static_cast<uint32_t>(ids.size())).first->second;
    }
    for (State q = 0; q < n; ++q) {
      if (!reachable[q]) next[q] = static_cast<uint32_t>(ids.size());
    }
    const size_t count = ids.size() + 1;
    const bool stable = count == num_classes;
    cls = std::move(next);
    num_classes = count;
    if (stable) break;
  }
  const uint32_t sink_cls = cls[sink];
  uint32_t junk_cls = UINT32_MAX;
  for (State q = 0; q < n && junk_cls == UINT32_MAX; ++q) {
    if (!reachable[q]) junk_cls = cls[q];
  }
  std::vector<uint32_t> renum(num_classes + 1, UINT32_MAX);
  uint32_t real = 0;
  for (State q = 0; q < n; ++q) {
    if (cls[q] != sink_cls && cls[q] != junk_cls && renum[cls[q]] == UINT32_MAX) {
      renum[cls[q]] = real++;
    }
  }
  auto map_cls = [&](uint32_t c) { return (c == sink_cls || c == junk_cls) ? real : renum[c]; };
  Dta out(real, d.alphabet_size());
  for (const auto& [l, r, sym, to] : trans) {
    if (!ok(l) || !ok(r) || map_cls(cls[to]) == real) continue;
    State nl = l == kAbsentChild ? kAbsentChild : map_cls(cls[l]);
    State nr = r == kAbsentChild ? kAbsentChild : map_cls(cls[r]);
    if (nl == real || nr == real) continue;
    out.AddTransition(nl, nr, sym, map_cls(cls[to]));
  }
  for (State q = 0; q < n; ++q) {
    if (reachable[q]) out.SetAccepting(map_cls(cls[q]), d.IsAccepting(q));
  }
  return out;
}

/// Same state count, accepting flags (sink included) and Step on every
/// (left, right, symbol), children ranging over kAbsentChild and all states.
inline void ExpectSameAutomaton(const Dta& got, const Dta& want) {
  ASSERT_EQ(got.num_states(), want.num_states());
  ASSERT_EQ(got.alphabet_size(), want.alphabet_size());
  for (State q = 0; q <= want.num_states(); ++q) {
    ASSERT_EQ(got.IsAccepting(q), want.IsAccepting(q)) << "state " << q;
  }
  std::vector<State> children{kAbsentChild};
  for (State q = 0; q <= want.num_states(); ++q) children.push_back(q);
  for (State l : children) {
    for (State r : children) {
      for (uint32_t sym = 0; sym < want.alphabet_size(); ++sym) {
        ASSERT_EQ(got.Step(l, r, sym), want.Step(l, r, sym))
            << "l " << l << " r " << r << " sym " << sym;
      }
    }
  }
}

}  // namespace qpwm::oracle

#endif  // QPWM_TESTS_AUTOMATON_ORACLE_H_
