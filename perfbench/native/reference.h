// The benchmark's speed reference (see reference.cc).
#ifndef QPWM_PERFBENCH_REFERENCE_H_
#define QPWM_PERFBENCH_REFERENCE_H_

#include <cstdint>

namespace perfbench {

/// Does the reference's fixed work; returns its checksum, the same on every
/// run.
uint64_t RunReference();

}  // namespace perfbench

#endif  // QPWM_PERFBENCH_REFERENCE_H_
