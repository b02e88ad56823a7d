// Deterministic fault injection for detect-under-write passes.
//
// Each detection attempt gets a FaultPlan drawn from (seed, attempt index)
// alone, so a fixed-seed soak replays the same faults at any thread count.
// The FaultyAnswerServer realizes the plan at the answer boundary — the only
// surface detection actually touches:
//
//   * epoch loss — the snapshot is yanked mid-pass (a writer superseded it
//     and the deployment reclaimed it): every answer from the loss point on
//     comes back empty and the pass is flagged, so the loop discards it and
//     retries against the next snapshot;
//   * failed batch — one answer round-trip fails transiently (same flagged
//     discard-and-retry semantics, counted separately);
//   * slow batch — a latency penalty in virtual ticks.
//
// Latency is measured in virtual ticks (rows served + penalties), never
// wall-clock, which is what keeps the soak report byte-identical across
// thread counts.
#ifndef QPWM_STREAM_FAULTS_H_
#define QPWM_STREAM_FAULTS_H_

#include <cstdint>
#include <vector>

#include "qpwm/core/answers.h"

namespace qpwm {

struct FaultOptions {
  /// Probability a detection attempt loses its epoch mid-pass.
  double epoch_loss_prob = 0.12;
  /// Probability the attempt's answer batch fails transiently.
  double failed_batch_prob = 0.08;
  /// Probability of a slow answer batch, and its tick penalty range.
  double slow_batch_prob = 0.25;
  uint64_t slow_penalty_min = 200;
  uint64_t slow_penalty_max = 2000;
};

/// The faults one detection attempt will hit.
struct FaultPlan {
  bool lose_epoch = false;
  bool fail_batch = false;
  uint64_t slow_penalty_ticks = 0;
};

/// Pure function of (seed, attempt): the same attempt always hits the same
/// faults. Draw order is fixed (loss, failure, slowness) so adding options
/// later cannot silently reshuffle existing campaigns.
FaultPlan MakeFaultPlan(uint64_t seed, uint64_t attempt_index,
                        const FaultOptions& options);

/// Answer-boundary fault wrapper. Counts virtual ticks (one per answer row
/// plus one per parameter, plus penalties) and realizes the plan. The base
/// server must outlive the wrapper; a wrapper serves exactly one detection
/// attempt (its fault state is monotone, not resettable).
class FaultyAnswerServer : public AnswerServer {
 public:
  FaultyAnswerServer(const AnswerServer& base, const FaultPlan& plan)
      : base_(&base), plan_(plan) {}

  AnswerSet Answer(const Tuple& params) const override;
  void AnswerAllFlat(const std::vector<Tuple>& params,
                     FlatAnswers& out) const override;

  /// Virtual serving cost consumed so far.
  uint64_t ticks() const { return ticks_; }
  /// The pass lost its epoch / hit a failed batch; its detection output must
  /// be discarded and the pass retried.
  bool epoch_lost() const { return epoch_lost_; }
  bool batch_failed() const { return batch_failed_; }
  bool faulted() const { return epoch_lost_ || batch_failed_; }

 private:
  /// Charges the per-round-trip cost; returns true when the round trip
  /// should serve real answers.
  bool BeginRoundTrip() const;

  const AnswerServer* base_;
  FaultPlan plan_;
  mutable uint64_t round_trips_ = 0;
  mutable uint64_t ticks_ = 0;
  mutable bool epoch_lost_ = false;
  mutable bool batch_failed_ = false;
};

}  // namespace qpwm

#endif  // QPWM_STREAM_FAULTS_H_
