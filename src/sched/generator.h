// A deadlock-free, policy-driven list scheduler over the slice-level
// dependency graph. It generates static per-stage program orders by
// simulating abstract time: at every instant each idle stage starts the
// highest-priority ready op, subject to a per-stage cap on the number of
// retained forward passes (the memory knob — §4.2's "number of forward
// passes before the first backward", parameter f).
//
// It is one policy of the list-scheduling kernel (sched/list_scheduler.h)
// that also runs the synthesizer's composer. With the composer it builds
// every schedule the planner prices except VPP's closed-form order:
//   - 1F1B/DAPPLE      (v=1, s=1, cap_i = min(n, p-i)) and ZB-1P
//   - SVPP and all its memory variants (general v, s, cap_i = max(v·s, f-i))
//   - TeraPipe/GPipe   (uncapped, forward-first priority)
//   - Hanayo and ZBV-capped (v=2, V-shape placement)
//   - every straggler and fleet regeneration (core/rebalance)
// The cap schema cap_i = max(v·s, f−i) reduces exactly to 1F1B's warmup
// depth for v=s=1, f=p.
#ifndef MEPIPE_SCHED_GENERATOR_H_
#define MEPIPE_SCHED_GENERATOR_H_

#include <string>
#include <vector>

#include "sched/schedule.h"

namespace mepipe::sched {

// Structured option-admissibility error (same idiom as
// hw::ParallelLayout::Validate): one issue per violated rule, so callers
// can report every problem at once instead of failing on the first.
struct GeneratorIssue {
  enum class Code {
    kInflightCapArity,      // inflight_cap length != stage count
    kStageTimeScaleArity,   // stage_time_scale length != stage count
    kNonPositiveTimeScale,  // a stage_time_scale entry <= 0 (or NaN)
    kNegativeInflightCap,   // an inflight_cap entry < 0
  };
  Code code;
  int stage = -1;  // offending entry index, when applicable
  std::string message;
};

const char* GeneratorIssueCodeName(GeneratorIssue::Code code);

// How weight-gradient ops are placed when problem.split_backward is set.
enum class WgradPolicy {
  kDeferred,        // not in the static order; the engine fills bubbles (§5)
  kLowestPriority,  // statically placed only when no F/B is ready (ZB-style)
};

struct GeneratorOptions {
  // Per-stage cap on retained forwards; 0 entries or an empty vector mean
  // "uncapped". Use CapSchedule() to build the SVPP/1F1B schema.
  std::vector<int> inflight_cap;
  // Priority between a ready F and a ready B: backward-first releases
  // memory and unblocks upstream stages (1F1B/SVPP); forward-first yields
  // GPipe/TeraPipe shapes.
  bool backward_first = true;
  WgradPolicy wgrad = WgradPolicy::kDeferred;
  // §4.3 rescheduling optimization: among simultaneously-ready backward
  // passes, prefer the one with the most transitive children
  // ((slice+1)·(chunk+1) − 1), which unblocks the largest remaining
  // subtree. Off ⇒ plain lexicographic order (the unoptimized variant).
  bool child_count_backward_priority = false;
  // Per-stage multipliers on the abstract durations (all must be > 0):
  // an op on stage i takes its kind's duration · stage_time_scale[i].
  // Empty = uniform stages. This is the straggler-aware hook:
  // core/rebalance passes measured slowdowns (× the rebalanced
  // layer-share ratio) so the generated interleaving wraps around a
  // known-slow stage instead of assuming uniform rates. The abstract
  // durations only order the generation (real costs are applied later by
  // the execution engine): F and W take 1, B takes 1 when the problem
  // splits the backward (its activation-gradient half) and 2 otherwise,
  // and a cross-stage transfer takes 0.05 — small and positive, so a
  // transfer never beats a no-op.
  std::vector<double> stage_time_scale;

  // Structured admissibility checks against a `stages`-stage problem.
  // Empty result ⇔ the options are well-formed (a length mismatch
  // between the per-stage vectors and the stage count was previously
  // only caught — or worse, silently accepted — deep inside
  // generation). GenerateCapped runs this at entry and throws
  // CheckError with the full issue list.
  std::vector<GeneratorIssue> Validate(int stages) const;
};

// Builds the cap vector cap_i = max(min_cap, f - i) for `stages` stages.
std::vector<int> CapSchedule(int stages, int f, int min_cap);

// Generates and validates a schedule. Throws CheckError if the options
// make the problem unschedulable (e.g. a cap below v·s).
Schedule GenerateCapped(const PipelineProblem& problem, const GeneratorOptions& options,
                        std::string method_name);

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_GENERATOR_H_
