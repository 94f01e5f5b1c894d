#ifndef SPATEBENCH_TRACE_H_
#define SPATEBENCH_TRACE_H_

// In-memory span recording for the traced run. Spans are recorded from the
// benchmark's own files, around each public call into a SPATE layer and
// around the per-leaf layer replay; nothing inside src/ is instrumented.
// One `SpanLog` per thread (no locking); logs are merged when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spatebench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same log, -1 for a root.
  int parent = -1;
  /// The benchmark op the span belongs to.
  int64_t op = -1;
};

/// Spans of one thread. Disabled logs record nothing: `Begin` returns -1 and
/// `End(-1)` is a no-op, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(const char* name, int64_t op);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int64_t op)
      : log_(log), index_(log.Begin(name, op)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Self time of every span of `spans` (same indexing): its duration minus
/// the part of its interval covered by the union of its children's
/// intervals (children may nest further and may overlap each other; parts
/// of a child outside its parent do not count).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-name totals over a set of logs.
struct LayerTime {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, LayerTime> SummarizeSpans(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON line (name, start/end ns relative to the
/// earliest span, parent, op, thread). Returns false on an I/O failure.
bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

}  // namespace spatebench

#endif  // SPATEBENCH_TRACE_H_
