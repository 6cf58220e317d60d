#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t SpanRecorder::Begin(const char* name) {
  if (!enabled_) return -1;
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), NowNs(), -1});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a skipped level.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3, i, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void SpanRecorder::PrintSelfTimes(size_t max_rows) const {
  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ns += s.end_ns - s.start_ns;
    a.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::printf("\n%-40s %8s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    std::printf("%-40s %8llu %12.3f %12.3f\n", rows[i].first.c_str(),
                static_cast<unsigned long long>(rows[i].second.count),
                static_cast<double>(rows[i].second.total_ns) / 1e6,
                static_cast<double>(rows[i].second.self_ns) / 1e6);
  }
}

}  // namespace perfbench
