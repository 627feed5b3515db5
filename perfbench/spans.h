// Timing primitives of the benchmark: a monotonic clock, order
// statistics over samples, and the in-memory span recorder the traced
// run uses to attribute a planner query's time to the layers below it.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Seconds on std::chrono::steady_clock since an arbitrary fixed origin.
double Now();

// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

// One recorded interval. `parent` is the id of the enclosing span (-1 for
// a root); spans of one planner query share `query`.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int id = 0;
  int parent = -1;
  int query = -1;
  // Work units the span processed (schedule ops for per-op costs; 0 when
  // the layer has no op count).
  long ops = 0;
};

// Per-name aggregate over the recorded spans.
struct LayerSummary {
  long calls = 0;
  long ops = 0;
  double total_s = 0;
  double self_s = 0;          // total minus the union of child intervals
  std::vector<double> durations;
};

class SpanRecorder {
 public:
  // Opens a span and returns its id. Spans close in LIFO order per
  // parent chain; the recorder is single-threaded.
  int Begin(std::string name, int parent, int query);
  void End(int id, long ops = 0);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, LayerSummary> Summarize() const;
  // Chrome trace-event JSON in the layout trace::ToChromeTraceJson emits
  // ("X" complete events, µs timestamps): pid 3 holds the benchmark's
  // spans, tid 0 the planner queries and tid 1 the layer replays.
  std::string ToChromeTraceJson() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
