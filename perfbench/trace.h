#ifndef TRICLUST_PERFBENCH_TRACE_H_
#define TRICLUST_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call: `name` is "<layer>.<public call>", times are
/// nanoseconds since the tracer was created, `parent` indexes the span
/// that was open when this one began (-1 for a root).
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// In-memory span recorder for the benchmark's single caller thread.
/// A disabled tracer records nothing, so the untraced run pays one branch
/// per instrumented call. Spans are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name);
  /// Closes the span `index` returned by Begin (no-op for -1).
  void End(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Total milliseconds per span name over the spans nested inside span
  /// `root` (the root itself excluded); `root` may still be open.
  std::map<std::string, double> TotalsUnder(int root) const;

  /// Writes every span as one JSON document (format "perfbench-spans/1",
  /// see perfbench/README.md); false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~Span() { tracer_->End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // TRICLUST_PERFBENCH_TRACE_H_
