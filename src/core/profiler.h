// The profiler component of the paper's implementation (§6): MEPipe
// "includes (1) a profiler that measures the computation time and memory
// consumption for each forward and backward pass".
//
// Here the profiler digests an executed timeline into per-(kind, slice,
// chunk) duration statistics, and ProfiledCostModel replays those
// measurements as a cost model — closing the paper's profiler →
// scheduler → engine loop: simulate once with analytic costs, profile,
// re-plan with measured costs.
#ifndef MEPIPE_CORE_PROFILER_H_
#define MEPIPE_CORE_PROFILER_H_

#include <map>
#include <string>

#include "sim/cost_model.h"
#include "sim/engine.h"

namespace mepipe::core {

struct OpStats {
  int count = 0;
  Seconds total = 0;
  Seconds min = 0;
  Seconds max = 0;

  Seconds mean() const { return count > 0 ? total / count : 0.0; }
};

class Profile {
 public:
  // Aggregates the compute spans of a simulated run. Micro-batch index
  // is dropped (durations are micro-invariant); (kind, slice, chunk) is
  // the key, matching how the cost model is indexed. Throws CheckError on
  // a result without a timeline (PriceScheduleTable, or
  // EngineOptions::record_timeline off).
  static Profile FromResult(const sim::SimResult& result);

  const OpStats* Find(sched::OpKind kind, int slice, int chunk) const;
  // Mean duration across every op of `kind`.
  Seconds MeanOf(sched::OpKind kind) const;
  std::size_t distinct_ops() const { return stats_.size(); }

  // Human-readable per-kind summary (the §6 profiler's report).
  std::string Report() const;

 private:
  struct Key {
    sched::OpKind kind;
    int slice;
    int chunk;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  std::map<Key, OpStats> stats_;
};

// A cost model that replays profiled durations, falling back to a base
// model for ops the profile never saw (and for transfers/memory, which
// the profile does not capture).
class ProfiledCostModel : public sim::CostModel {
 public:
  ProfiledCostModel(Profile profile, const sim::CostModel& fallback)
      : profile_(std::move(profile)), fallback_(fallback) {}

  Seconds ComputeTime(const sched::OpId& op) const override;
  Seconds TransferTime(const sched::OpId& producer) const override;
  Bytes ActivationBytes(const sched::OpId& forward) const override;
  Bytes ActGradBytes(const sched::OpId& backward) const override;
  int WeightGradGemmCount(const sched::OpId& wgrad) const override;

 private:
  Profile profile_;
  const sim::CostModel& fallback_;
};

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_PROFILER_H_
