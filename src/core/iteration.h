// End-to-end iteration simulation: builds the schedule a strategy calls
// for, prices it with TrainingCostModel, executes it on the
// discrete-event engine, and folds in the data-parallel synchronization
// and optimizer step — producing the quantities the paper's evaluation
// reports (iteration time, bubble ratio, peak memory, per-GPU TFLOPS,
// MFU).
#ifndef MEPIPE_CORE_ITERATION_H_
#define MEPIPE_CORE_ITERATION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/training_cost.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "sched/schedule.h"
#include "sim/engine.h"

namespace mepipe::core {

// Whether `method` schedules B and W as separate ops (zero-bubble family
// and MEPipe) — fixed properties of the method the planner and the
// surrogate both key decisions off.
bool MethodSplitsBackward(Method method);
// Whether `method`'s slice axis is SPP (sequence pipeline) rather than CP.
bool MethodUsesSlices(Method method);

// The pipeline problem `strategy` poses with `micros` micro-batches per
// replica: stages, virtual chunks, slices, split backward, and the
// V-shaped chunk placement of the methods that fold their chunks back
// (ZBV, ZBV-capped, Hanayo, and Synth at vp=2). Candidate builds, the
// surrogate's egress shape and the pruning bound all derive a strategy's
// shape here, so their chunk→stage mappings cannot disagree.
sched::PipelineProblem ProblemFor(const Strategy& strategy, int micros);

// Host-side optimizer step, paid once per iteration after the flush.
inline constexpr Seconds kOptimizerStep = Milliseconds(15);

struct IterationOptions {
  TrainingCostOptions cost;
  // Fill policy for deferred weight gradients (MEPipe default: per-GEMM).
  sim::WgradMode wgrad_mode = sim::WgradMode::kFillGemms;
  // SVPP memory variant; 0 = automatic via the §4.5 memory model.
  int svpp_inflight = 0;
  // Record the (potentially large) per-op timeline and keep it in the
  // result. Off, the engine records no span at all
  // (sim::EngineOptions::record_timeline), and the planner keeps its
  // winner's phase-2 result instead of re-simulating it for a timeline.
  bool keep_timeline = true;
  // Keep the executed schedule (post-mitigation when a rebalanced one
  // was adopted) in IterationResult::schedule, so callers can re-check
  // sched/validate invariants — the elastic runtime does this for every
  // live re-plan under the shrunken fleet's activation budget.
  bool keep_schedule = false;
  // Per-op lognormal duration jitter (0 = deterministic); seeds one
  // "iteration" of the §7.1 measurement protocol (see core/experiment.h).
  double noise_sigma = 0;
  std::uint64_t noise_seed = 0;
  // Scripted engine-level fault plan the iteration runs under (an empty
  // ref = clean run). Value-semantic: assigning a FaultPlan copies it
  // into shared storage.
  sim::FaultPlanRef fault_plan;
  // Straggler-aware rebalancing (core/rebalance): when the fault plan
  // slows stages down, estimate the per-stage slowdown, re-partition
  // layers / re-tune caps, and adopt the mitigated schedule when it
  // beats the unmitigated one under the same plan.
  bool rebalance_stragglers = false;
  // Overlap the per-bucket DP gradient all-reduce with the pipeline
  // (sim::EngineOptions::dp_overlap) instead of serializing the
  // monolithic sync after the flush. Whether the DP ring contends with
  // pipeline transfers is derived from the cluster topology
  // (hw::FabricShareMap::Shares(kData, kPipeline)). iteration_time then
  // pays only the exposed tail (IterationResult::dp).
  bool dp_overlap = false;
};

struct IterationResult {
  Strategy strategy;
  bool feasible = false;
  std::string note;  // "ok", or the constraint/OOM explanation

  int micros = 0;                // n per data-parallel replica
  Seconds pipeline_time = 0;     // schedule makespan

  // Straggler-mitigation outcome (IterationOptions::rebalance_stragglers;
  // zero-initialized when mitigation is off).
  struct MitigationOutcome {
    // True when a rebalanced schedule was adopted; unmitigated_pipeline_time
    // is the makespan the original schedule measured under the same
    // faults (== pipeline_time when nothing was adopted).
    bool rebalanced = false;
    Seconds unmitigated_pipeline_time = 0;
  };
  MitigationOutcome mitigation;

  // DP gradient-sync breakdown. Invariant: exposed + hidden == serialized
  // (without overlap everything is exposed).
  struct DpSyncBreakdown {
    bool overlapped = false;  // IterationOptions::dp_overlap was in effect
    Seconds serialized = 0;   // cost if synced back-to-back after the flush
    Seconds hidden = 0;       // absorbed inside pipeline bubbles
    Seconds exposed = 0;      // remainder the iteration actually pays
  };
  DpSyncBreakdown dp;
  Seconds dp_sync_time = 0;      // == dp.exposed (the paid remainder)
  Seconds iteration_time = 0;    // makespan + exposed DP sync + optimizer step
  double bubble_ratio = 0;

  Bytes static_memory = 0;       // worst stage
  Bytes peak_activation = 0;     // worst stage (measured)
  Bytes peak_memory = 0;         // static + activations
  // Checkpoint sizing of this strategy (TrainingCostModel): the worst
  // single rank's parallel write and the total restorable state. Feeds
  // the planner's goodput objective via core::CheckpointWriteCost.
  Bytes checkpoint_shard = 0;
  Bytes checkpoint_state = 0;

  // Goodput pricing (PlannerObjective::kGoodput; zero/false until the
  // planner prices this result under its failure model).
  struct GoodputOutcome {
    bool priced = false;
    Seconds checkpoint_interval = 0;    // solver-chosen (Young/Daly refined)
    Seconds checkpoint_write_cost = 0;  // from checkpoint_shard
    double goodput = 0;                 // useful/wall under the failure model
    // Wall-clock seconds per useful iteration: iteration_time / goodput.
    // The quantity the goodput objective minimizes.
    Seconds effective_iteration_time = 0;
  };
  GoodputOutcome goodput;

  double per_gpu_flops = 0;      // achieved FLOPS per GPU
  double mfu = 0;                // model FLOPS utilization

  sim::SimResult sim;            // timeline (not recorded if !keep_timeline)
  // The executed schedule and the per-stage activation budget (bytes)
  // the engine ran it under (empty unless IterationOptions::keep_schedule
  // and, for the budget, the method defers weight gradients).
  sched::Schedule schedule;
  std::vector<Bytes> activation_budget;
};

// Everything a candidate strategy needs before execution: the structural
// feasibility verdict, the pipeline problem, the priced cost model, the
// generated schedule, and the engine-facing wgrad/budget settings.
// Shared by the DES and the surrogate pricers (core/fleet) so both agree
// on exactly what a candidate means.
struct CandidateBuild {
  Strategy strategy;
  bool feasible = false;
  std::string note;  // "ok", or the structural-constraint explanation
  int micros = 0;
  sched::PipelineProblem problem;
  // Present iff feasible (TrainingCostModel has no default state).
  std::optional<TrainingCostModel> costs;
  sched::Schedule schedule;
  // Effective engine settings: methods with statically-filled W override
  // the caller's wgrad mode; split-backward methods get a per-stage
  // activation budget of usable_memory - StaticMemory(stage).
  sim::WgradMode wgrad_mode = sim::WgradMode::kFillGemms;
  std::vector<Bytes> activation_budget;
};

// Builds (but does not execute) the candidate: structural feasibility,
// problem, cost model, schedule, and engine settings. Infeasible
// candidates return feasible=false with a note and no costs/schedule.
CandidateBuild BuildCandidate(const model::TransformerConfig& config,
                              const Strategy& strategy, const hw::ClusterSpec& cluster,
                              int global_batch, const IterationOptions& options = {});

// Simulates one training iteration of `config` under `strategy` on
// `cluster` with global batch size `global_batch` (samples). Infeasible
// strategies (indivisible batch, model not partitionable, OOM, …) return
// feasible=false with an explanatory note instead of throwing.
//
// A ClusterSpec request is a one-tier topology whose layout must use
// every GPU: the first issue of
// ParallelLayout::Validate(SingleTierTopology(cluster)) is returned as
// the note (a factor below 1, a layout that does not cover the cluster,
// tp>1 on a through-host fabric). An admitted layout runs
// SimulatePlacedIteration (defined with it in core/fleet.cc) with every
// stage on tier 0.
IterationResult SimulateIteration(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterSpec& cluster,
                                  int global_batch, const IterationOptions& options = {});

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_ITERATION_H_
