#include "core/profiler.h"

#include <algorithm>

#include "common/check.h"
#include "common/format.h"

namespace mepipe::core {

Profile Profile::FromResult(const sim::SimResult& result) {
  // Every run executes at least one op, so an empty timeline means none
  // was recorded (a table replay, or record_timeline off).
  MEPIPE_CHECK(!result.timeline.empty())
      << "run the engine with record_timeline=true (IterationOptions::keep_timeline)";
  Profile profile;
  for (const sim::OpSpan& span : result.timeline) {
    if (span.is_transfer) {
      continue;
    }
    const Key key{span.op.kind, span.op.slice, span.op.chunk};
    OpStats& stats = profile.stats_[key];
    const Seconds duration = span.end - span.start;
    if (stats.count == 0) {
      stats.min = duration;
      stats.max = duration;
    } else {
      stats.min = std::min(stats.min, duration);
      stats.max = std::max(stats.max, duration);
    }
    ++stats.count;
    stats.total += duration;
  }
  return profile;
}

const OpStats* Profile::Find(sched::OpKind kind, int slice, int chunk) const {
  const auto it = stats_.find({kind, slice, chunk});
  return it == stats_.end() ? nullptr : &it->second;
}

Seconds Profile::MeanOf(sched::OpKind kind) const {
  Seconds total = 0;
  int count = 0;
  for (const auto& [key, stats] : stats_) {
    if (key.kind == kind) {
      total += stats.total;
      count += stats.count;
    }
  }
  return count > 0 ? total / count : 0.0;
}

std::string Profile::Report() const {
  std::string out = "profile: (kind, slice, chunk) -> mean [min, max] x count\n";
  for (const auto& [key, stats] : stats_) {
    out += StrFormat("  %-2s t=%d g=%-2d  %10.3f ms [%10.3f, %10.3f] x%d\n",
                     ToString(key.kind), key.slice, key.chunk, ToMilliseconds(stats.mean()),
                     ToMilliseconds(stats.min), ToMilliseconds(stats.max), stats.count);
  }
  return out;
}

Seconds ProfiledCostModel::ComputeTime(const sched::OpId& op) const {
  if (const OpStats* stats = profile_.Find(op.kind, op.slice, op.chunk)) {
    return stats->mean();
  }
  return fallback_.ComputeTime(op);
}

Seconds ProfiledCostModel::TransferTime(const sched::OpId& producer) const {
  return fallback_.TransferTime(producer);
}

Bytes ProfiledCostModel::ActivationBytes(const sched::OpId& forward) const {
  return fallback_.ActivationBytes(forward);
}

Bytes ProfiledCostModel::ActGradBytes(const sched::OpId& backward) const {
  return fallback_.ActGradBytes(backward);
}

int ProfiledCostModel::WeightGradGemmCount(const sched::OpId& wgrad) const {
  return fallback_.WeightGradGemmCount(wgrad);
}

}  // namespace mepipe::core
