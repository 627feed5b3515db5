// Memory-controllable schedule synthesis: one engine that emits the whole
// handcrafted zoo (1F1B, VPP, ZBV, …) as points of a single budgeted
// family, plus the budgets in between that no handcrafted recipe covers.
//
// Following "Pipeline Parallelism with Controllable Memory" (Qi et al.,
// arXiv:2405.15362), every schedule in sched/ decomposes into a repeating
// per-stage building block — some number of warmup forwards, then a
// steady-state rotation of F/B(/W) over the stage's local chunks — whose
// free parameters are the per-stage warmup offsets and the fill policy.
// The synthesizer instantiates that parameterization under a per-stage
// activation budget (retained chunk-forwards) with two cooperating
// engines:
//
//   composer  — a policy of the list-scheduling kernel
//               (sched/list_scheduler.h) that GenerateCapped also runs:
//               a stage-local greedy over arbitrary v, both chunk
//               placements, and fused or split backward that turns a
//               concrete (warmup offsets, fill policy) assignment into a
//               complete program order; handcrafted ZB-V (sched/zbv.h)
//               is four of its runs. Later-visit forwards outrank
//               earlier ones and each visit-k forward reserves v-k cap
//               slots, so the backward chain can always be reached and
//               the budget is respected by construction.
//   refiner   — a branch-and-bound over the warmup offsets, seeded by
//               greedy incumbents, pruned by an admissible chunk-chain
//               lower bound (for uniform-cost ZBV shapes the bound is
//               exactly 6n+(p-1) chunk-op units, and the composer
//               reaches it) and by the activation cap (offsets beyond a
//               stage's budget cannot be scheduled and are never
//               branched on).
//
// Budget extremes recover the handcrafted constructions:
//   v=1, fused B,  budget_i = max(1, p-i)  → 1F1B
//   v>1, fused B,  round-robin placement   → VPP-class interleaving
//   v=2, split B,  V-shape, budget 2p      → ZB-V at the 6n+(p-1) bound
// and intermediate budgets trace the memory–bubble frontier between
// them (bench_synth pins it in synth_frontier.csv).
#ifndef MEPIPE_SCHED_SYNTH_H_
#define MEPIPE_SCHED_SYNTH_H_

#include <vector>

#include "sched/schedule.h"

namespace mepipe::sched {

struct SynthOptions {
  // Abstract per-op durations used to order the composition; real costs
  // are applied later by the execution engine. With split_backward,
  // b_time is the activation-gradient half only.
  double f_time = 1.0;
  double b_time = 1.0;
  double w_time = 1.0;
  // Abstract inter-stage transfer delay; the list-scheduling kernel's
  // lookahead window is twice this (sched/list_scheduler.h).
  double transfer_time = 0.05;
  // Per-stage activation budget in retained chunk-forwards (a forward is
  // retained until the op that releases it: W when the problem splits
  // the backward, B otherwise). Empty = uncapped (n·v per stage). Every
  // entry must be >= v, the floor below which a micro-batch's chunk
  // chain cannot fit on the stage.
  std::vector<int> budget;
  // Branch-and-bound controls: offsets are branched within
  // ±offset_radius of the incumbent's measured warmup, and at most
  // max_leaves full compositions are evaluated (the incumbent is always
  // a valid schedule, so exhaustion degrades quality, never correctness).
  int offset_radius = 2;
  int max_leaves = 256;
};

// Synthesis diagnostics (all filled by SynthesizeSchedule).
struct SynthReport {
  double makespan = 0.0;     // abstract, under the SynthOptions durations
  double lower_bound = 0.0;  // admissible chunk-chain bound for the shape
  bool reached_lower_bound = false;
  std::vector<int> warmup;   // chosen per-stage warmup offsets
  int peak_retained = 0;     // worst-stage retained chunk-forwards
  int leaves_evaluated = 0;  // compositions run by the refiner
  int subtrees_pruned = 0;   // cut by the bound or the activation cap
};

// Synthesizes and validates a schedule for `problem` (slices must be 1;
// the slice axis is SVPP's dimension, not the block family's), labelled
// "Synth(v=<v>,cap=<lowest>..<highest budget>)". Throws
// CheckError for malformed inputs: non-positive durations, negative
// transfer, a budget vector whose length is not `stages`, or a budget
// entry below the v floor.
Schedule SynthesizeSchedule(const PipelineProblem& problem, const SynthOptions& options = {},
                            SynthReport* report = nullptr);

// The admissible makespan lower bound the refiner prunes with: every op
// starts no earlier than its dependency-DAG earliest start (infinite
// resources), and a stage must serially execute all of its work after
// the ramp first reaches it —
//   max( max_i  earliest_arrival_i + serial_work_i ,  critical path ).
// For uniform-cost ZBV shapes (v=2, split B, F=B=W, zero transfer) this
// is exactly 6n+(p-1) chunk-op units.
double SynthChunkChainLowerBound(const PipelineProblem& problem, const SynthOptions& options = {});

// The per-stage budget vectors under which the synthesizer reproduces
// the handcrafted extremes (see header comment).
std::vector<int> SynthOneFOneBBudget(int stages, int micros);
std::vector<int> SynthZbvBudget(int stages, int micros);

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_SYNTH_H_
