#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

namespace spatebench {

int SpanLog::Begin(const char* name, int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  open_.pop_back();  // ScopedSpan closes spans in LIFO order
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.parent < static_cast<int>(spans.size())) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = std::numeric_limits<int64_t>::min();
    for (auto [s, e] : kids) {
      s = std::max(s, lo);
      e = std::min(e, hi);
      if (e <= s) continue;
      if (s > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, LayerTime> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTime> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTime& layer = out[spans[i].name];
      layer.total_ns += spans[i].end_ns - spans[i].start_ns;
      layer.self_ns += self[i];
    }
  }
  return out;
}

bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& span : logs[t]->spans()) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %d, \"op\": %lld, \"thread\": %zu}\n",
                   span.name, static_cast<long long>(span.start_ns - origin),
                   static_cast<long long>(span.end_ns - origin), span.parent,
                   static_cast<long long>(span.op), t);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace spatebench
