#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int SpanRecorder::Begin(std::string name, int parent, int query) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.query = query;
  span.start = Now();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(int id, long ops) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = Now();
  span.ops = ops;
}

std::map<std::string, LayerSummary> SpanRecorder::Summarize() const {
  // Child intervals per parent, clipped to the parent: a span's self time
  // is its duration minus the union of its children's coverage.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
      const double lo = std::max(span.start, parent.start);
      const double hi = std::min(span.end, parent.end);
      if (hi > lo) {
        children[static_cast<std::size_t>(span.parent)].push_back({lo, hi});
      }
    }
  }
  std::map<std::string, LayerSummary> out;
  for (const Span& span : spans_) {
    auto& kids = children[static_cast<std::size_t>(span.id)];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = span.start;
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    LayerSummary& layer = out[span.name];
    const double duration = span.end - span.start;
    ++layer.calls;
    layer.ops += span.ops;
    layer.total_s += duration;
    layer.self_s += duration - covered;
    layer.durations.push_back(duration);
  }
  return out;
}

std::string SpanRecorder::ToChromeTraceJson() const {
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::string out = "[\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 3, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, "
                  "\"query\": %d, \"ops\": %ld}}%s\n",
                  span.name.c_str(), span.parent < 0 ? 0 : 1, (span.start - origin) * 1e6,
                  (span.end - span.start) * 1e6, span.id, span.parent, span.query, span.ops,
                  i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  out += "]\n";
  return out;
}

}  // namespace perfbench
