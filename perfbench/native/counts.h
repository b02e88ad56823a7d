// Counters the traced run records from a coded detection; shared by the
// CLI replica and the answers-only workloads.
#ifndef QPWM_PERFBENCH_COUNTS_H_
#define QPWM_PERFBENCH_COUNTS_H_

#include "qpwm/coding/coded_watermark.h"
#include "spans.h"

namespace perfbench {

inline void CountDetection(Tracer& t, const qpwm::CodedDetection& d) {
  t.Count("core.pairs_erased", static_cast<double>(d.channel.pairs_erased));
  t.Count("core.bits_recovered", static_cast<double>(d.channel.bits_recovered));
  t.Count("core.bits_read", static_cast<double>(d.channel.mark.size()));
  t.Count("coding.corrected", static_cast<double>(d.message.corrected));
  t.Count("coding.filled", static_cast<double>(d.message.filled));
}

}  // namespace perfbench

#endif  // QPWM_PERFBENCH_COUNTS_H_
