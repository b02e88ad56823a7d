// In-memory span recorder for the traced benchmark run.
//
// A span wraps one call into a library layer's public function: name, start,
// end, the span that caused it, and the request (operation) id it belongs to.
// Spans live here, in the benchmark's own files, around the calls; the
// library itself is not instrumented. With tracing off every Span is a no-op
// apart from one branch, so the untraced replica runs the same code path.
#ifndef QPWM_PERFBENCH_SPANS_H_
#define QPWM_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch).count();
}

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root (the operation span)
  uint64_t request = 0;
  double start_ms = 0;
  double end_ms = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void BeginRequest(uint64_t request) { request_ = request; }

  uint64_t Open(const std::string& name) {
    if (!enabled_) return 0;
    SpanRecord r;
    r.name = name;
    r.id = ++next_id_;
    r.parent = stack_.empty() ? 0 : stack_.back();
    r.request = request_;
    r.start_ms = NowMs();
    index_[r.id] = spans_.size();
    spans_.push_back(std::move(r));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void Close(uint64_t id) {
    if (!enabled_ || id == 0) return;
    spans_[index_.at(id)].end_ms = NowMs();
    stack_.pop_back();
  }

  /// Named counters of the current request (plan sizes, erasures, ...).
  void Count(const std::string& name, double value) {
    if (enabled_) counts_[name] += value;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  bool enabled_;
  uint64_t request_ = 0;
  uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<uint64_t, size_t> index_;
  std::vector<uint64_t> stack_;
  std::map<std::string, double> counts_;
};

/// RAII span: opened on construction, closed on destruction.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.Open(name)) {}
  ~Span() { tracer_.Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  uint64_t id_;
};

/// A span over the destruction of a scope's locals: declare it first in the
/// scope and call Begin() as the scope's last statement; it closes when it is
/// destroyed, after every local declared below it.
class TeardownSpan {
 public:
  explicit TeardownSpan(Tracer& tracer) : tracer_(tracer) {}
  ~TeardownSpan() { tracer_.Close(id_); }
  TeardownSpan(const TeardownSpan&) = delete;
  TeardownSpan& operator=(const TeardownSpan&) = delete;
  void Begin() { id_ = tracer_.Open("teardown"); }

 private:
  Tracer& tracer_;
  uint64_t id_ = 0;
};

/// Runs fn() inside a span named `name` and returns its result.
template <typename Fn>
auto Traced(Tracer& tracer, const std::string& name, Fn&& fn) {
  Span span(tracer, name);
  return fn();
}

}  // namespace perfbench

#endif  // QPWM_PERFBENCH_SPANS_H_
