#include "qpwm/stream/faults.h"

#include "qpwm/util/random.h"

namespace qpwm {

FaultPlan MakeFaultPlan(uint64_t seed, uint64_t attempt_index,
                        const FaultOptions& options) {
  // Decorrelate attempts with a SplitMix64 step over the attempt index so
  // neighboring attempts don't share fault prefixes.
  uint64_t mix = seed + 0x632BE59BD9B4E019ULL * (attempt_index + 1);
  Rng rng(SplitMix64(mix));
  FaultPlan plan;
  plan.lose_epoch = rng.Bernoulli(options.epoch_loss_prob);
  plan.fail_batch = rng.Bernoulli(options.failed_batch_prob);
  if (rng.Bernoulli(options.slow_batch_prob)) {
    plan.slow_penalty_ticks = static_cast<uint64_t>(
        rng.Uniform(static_cast<int64_t>(options.slow_penalty_min),
                    static_cast<int64_t>(options.slow_penalty_max)));
  }
  return plan;
}

bool FaultyAnswerServer::BeginRoundTrip() const {
  ++round_trips_;
  if (round_trips_ == 1) ticks_ += plan_.slow_penalty_ticks;
  if (plan_.lose_epoch) {
    epoch_lost_ = true;
    return false;
  }
  if (plan_.fail_batch && round_trips_ == 1) {
    batch_failed_ = true;
    return false;
  }
  return true;
}

AnswerSet FaultyAnswerServer::Answer(const Tuple& params) const {
  ticks_ += 1;
  if (!BeginRoundTrip()) return {};
  AnswerSet rows = base_->Answer(params);
  ticks_ += rows.size();
  return rows;
}

void FaultyAnswerServer::AnswerAllFlat(const std::vector<Tuple>& params,
                                       FlatAnswers& out) const {
  ticks_ += params.size();
  if (!BeginRoundTrip()) {
    out.Clear();
    for (size_t i = 0; i < params.size(); ++i) out.FinishParam();
    return;
  }
  base_->AnswerAllFlat(params, out);
  ticks_ += out.num_rows();
}

}  // namespace qpwm
