// Reference implementation of the Tardos codeword generator and trace scan,
// one candidate and one position at a time: codeword bits by the
// floating-point rule NextDouble() < p_i, a data-dependent select per
// position, and the pruning bound checked after every position. The
// recipient PRNG is re-derived from TardosOptions through the vector-word
// PRF, so the oracle pins the bits of every codeword already handed out
// independently of the library's seeding and bit-rule code. Tests compare
// the library's lockstep scan against it bit for bit.
#ifndef QPWM_TESTS_TRACE_ORACLE_H_
#define QPWM_TESTS_TRACE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "qpwm/coding/fingerprint.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/random.h"

namespace qpwm::oracle {

/// The PRNG recipient's codeword is drawn from.
inline Rng WordRng(const TardosOptions& opts, uint64_t recipient) {
  const PrfKey root{opts.seed, opts.seed ^ 0x9E3779B97F4A7C15ULL};
  const PrfKey word_key = root.Derive(0x7461726430776f64ULL);  // "tard0wod"
  return Rng(Prf(word_key, std::vector<uint64_t>{recipient}));
}

/// Sequential codeword bits: one PRNG step per position, bit 1 iff the
/// uniform double falls below the position's bias.
class CodewordStream {
 public:
  CodewordStream(const TardosCode& code, uint64_t recipient)
      : rng_(WordRng(code.options(), recipient)), code_(&code) {}
  bool NextBit() { return rng_.NextDouble() < code_->bias(pos_++); }

 private:
  Rng rng_;
  const TardosCode* code_;
  size_t pos_ = 0;
};

inline BitVec CodewordOf(const TardosCode& code, uint64_t recipient) {
  BitVec word(code.length());
  CodewordStream stream(code, recipient);
  for (size_t i = 0; i < code.length(); ++i) word.Set(i, stream.NextBit());
  return word;
}

inline double Score(const TardosCode& code, const FingerprintObservation& obs,
                    uint64_t recipient) {
  CodewordStream stream(code, recipient);
  double score = 0;
  for (size_t i = 0; i < code.length(); ++i) {
    score += stream.NextBit() ? obs.score_if_one[i] : obs.score_if_zero[i];
  }
  return score;
}

inline double NullTailLog10(double score, double variance, double max_term) {
  if (score <= 0) return 0;
  const double denom = 2.0 * (variance + max_term * score / 3.0);
  if (denom <= 0) return -std::numeric_limits<double>::infinity();
  return -(score * score / denom) / std::log(10.0);
}

inline bool AccusationBefore(const Accusation& a, const Accusation& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.recipient < b.recipient;
}

inline void InsertTopK(std::vector<Accusation>& top, const Accusation& a,
                       size_t k) {
  if (k == 0) return;
  if (top.size() == k && !AccusationBefore(a, top.back())) return;
  top.insert(std::upper_bound(top.begin(), top.end(), a, AccusationBefore), a);
  if (top.size() > k) top.pop_back();
}

/// FingerprintedWatermark::TraceMany as one serial scan over the pool.
inline TraceResult TraceMany(const FingerprintedWatermark& fp,
                             const FingerprintObservation& obs,
                             uint64_t candidates, const TraceOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const TardosCode& code = fp.code();
  const size_t n = code.length();
  TraceResult result;
  result.candidates = candidates;
  result.fp_threshold = code.options().fp_threshold;
  result.null_variance = obs.null_variance;
  result.max_term = obs.max_term;
  result.threshold = fp.AccusationThreshold(obs, candidates);

  std::vector<double> suffix(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] +
                std::max(0.0, std::max(obs.score_if_one[i], obs.score_if_zero[i]));
  }
  result.max_achievable = suffix[0];

  if (obs.null_variance <= 0 || result.max_achievable < result.threshold) {
    result.pruned = candidates;
  } else {
    const double log10_n = std::log10(static_cast<double>(candidates));
    const double prune_below =
        options.prune ? options.prune_frac * result.threshold : -kInf;
    for (uint64_t j = 0; j < candidates; ++j) {
      CodewordStream stream(code, j);
      double score = 0;
      bool abandoned = false;
      for (size_t i = 0; i < n; ++i) {
        score += stream.NextBit() ? obs.score_if_one[i] : obs.score_if_zero[i];
        if (score + suffix[i + 1] < prune_below) {
          abandoned = true;
          break;
        }
      }
      if (abandoned) {
        ++result.pruned;
        continue;
      }
      Accusation a;
      a.recipient = j;
      a.score = score;
      a.log10_fp = std::min(
          0.0, log10_n + NullTailLog10(score, obs.null_variance, obs.max_term));
      if (score >= result.threshold) result.accused.push_back(a);
      InsertTopK(result.top, a, options.top_k);
    }
    std::sort(result.accused.begin(), result.accused.end(), AccusationBefore);
  }

  if (!result.accused.empty()) {
    result.kind = TraceVerdictKind::kTraced;
  } else if (obs.channel.verdict.kind == VerdictKind::kNoMark) {
    result.kind = TraceVerdictKind::kNoMark;
  } else {
    result.kind = TraceVerdictKind::kUntraceable;
  }
  return result;
}

}  // namespace qpwm::oracle

#endif  // QPWM_TESTS_TRACE_ORACLE_H_
