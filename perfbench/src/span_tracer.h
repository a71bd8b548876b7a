// The benchmark's own span recorder for the traced pass. Spans wrap the
// calls the benchmark makes into each layer's public functions (nothing is
// recorded inside the library). Spans live in memory and are written out
// once, as Chrome trace JSON that Perfetto loads like /debug/tracez.
#ifndef PERFBENCH_SPAN_TRACER_H_
#define PERFBENCH_SPAN_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanTracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds, NowSec() clock
    double end = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t query = 0;   // query id shared by a request's spans
    uint64_t thread = 0;
  };

  /// Opens a span under the calling thread's innermost open span.
  uint64_t Begin(const std::string& name, uint64_t query);
  void End(uint64_t id);

  /// Spans named `name` (closed ones only).
  std::vector<Span> Named(const std::string& name) const;
  /// Duration minus the time covered by direct children, summed per name
  /// over spans whose query id is in [lo, hi).
  std::map<std::string, double> SelfSeconds(uint64_t lo, uint64_t hi) const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, const std::string& name, uint64_t query)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, query) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACER_H_
