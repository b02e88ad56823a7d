// In-process replica of the qpwm CLI's library call sequence.
//
// Mirrors tools/qpwm_cli.cpp for the paths the benchmark drives: mark-csv /
// mark-xml and detect-csv / detect-xml with a message codec. Each
// call into a library layer is wrapped in a span; nothing is printed, so the
// difference between a CLI invocation and the replica is the CLI's own glue
// (process start, flag parsing, report printing).
#ifndef QPWM_PERFBENCH_REPLICA_H_
#define QPWM_PERFBENCH_REPLICA_H_

#include <map>
#include <string>

#include "spans.h"

namespace perfbench {

using Flags = std::map<std::string, std::string>;

struct ReplicaResult {
  /// The exit code the CLI would return for the same invocation.
  int exit_code = 0;
  /// Error text when exit_code == 2.
  std::string error;
  /// detect: the decoded payload ('?' = erased).
  std::string payload;
};

/// `command` is one of mark-csv, detect-csv, mark-xml, detect-xml; `flags`
/// are the CLI's flags without the leading dashes. Process-wide caches are
/// cleared first, so each call models one fresh CLI process.
ReplicaResult RunReplica(const std::string& command, const Flags& flags, Tracer& tracer);

}  // namespace perfbench

#endif  // QPWM_PERFBENCH_REPLICA_H_
