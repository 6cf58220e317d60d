// In-memory span recorder for the traced run.  Spans are recorded from
// the benchmark's own files around calls into each layer (nothing inside
// src/ is instrumented), kept in memory, and written out once at exit in
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
//
// A disabled recorder (the end-to-end run) records nothing.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; `name` must outlive the
  /// recorder (string literals).  Returns its id, or -1 when disabled.
  int32_t Begin(const char* name);
  void End(int32_t id);

  /// Writes every span as a trace-event JSON file; false on I/O error.
  bool WriteJson(const std::string& path) const;

  /// Prints count, total and self time per span name (self = duration
  /// minus the time covered by child spans), largest self time first.
  void PrintSelfTimes(size_t max_rows) const;

 private:
  struct Span {
    const char* name;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< stack of open span ids.
};

/// RAII span on a (possibly disabled) recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.Begin(name)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
