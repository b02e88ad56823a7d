// The answers-only workload: the owner plans once, hands copies
// fingerprinted for recipients out, and later traces leaked suspects only
// through their query answers (FingerprintedWatermark::Observe + TraceMany
// over the full candidate pool).
#ifndef QPWM_PERFBENCH_LEAK_H_
#define QPWM_PERFBENCH_LEAK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spans.h"

namespace perfbench {

struct LeakOutcome {
  /// Wall time of the operation itself; the checks run after it.
  double wall_ms = 0;
  bool ok = true;
  std::string detail;  // why a check failed
};

class LeakWorkload {
 public:
  /// Plans the owner's instance and builds the rotating suspect set, all
  /// derived from `seed`.
  LeakWorkload(uint64_t seed, Tracer& tracer);
  ~LeakWorkload();

  /// Marks every copy (one recipient's fingerprint each) in one operation; checks each repeats byte for byte and stays within the
  /// distortion bound. `corrupt` damages copy 0 after the timed part, so
  /// both checks must fail (for the benchmark's self-test).
  LeakOutcome Mark(Tracer& tracer, bool corrupt);
  /// Traces the next leaked suspect; checks a true leaker is accused and no
  /// innocent is. `wrong_copy` checks the answer against the next copy's
  /// leakers, so the check must fail (self-test).
  LeakOutcome Read(Tracer& tracer, bool wrong_copy);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench

#endif  // QPWM_PERFBENCH_LEAK_H_
