// The list interpreter: executes a static Schedule against a CostModel.
//
// Every stage runs its program order, waiting on same-stage completions
// and cross-stage transfers. Deferred weight-gradient work is slotted
// into the waits — the runtime half of the paper's fine-grained
// weight-gradient technique (§5) — and drained early when an allocation
// would overflow the stage's activation budget (Figure 7b). Activation
// (+ activation-gradient) memory is tracked so that peak consumption and
// bubbles are *measured*, not asserted.
//
// One kernel, two entry points. They share every line except the arrival
// rule of a cross-stage transfer and what gets recorded:
//  - Simulate, the discrete-event engine: transfers serialize per
//    directed stage-pair link; it records the timeline and the memory
//    series when asked, and takes fault plans and DP fabric sharing.
//  - PriceScheduleTable, the surrogate's table replay: a transfer arrives
//    at producer done + transfer time (point to point), and nothing is
//    recorded per op. On transfer-free costs the two agree bit for bit.
// Both reject malformed input with CheckError, accepting exactly what
// sched::ValidateSchedule accepts at O(1) per op: each stage's op count
// and every op's kind, index ranges, owning stage, gemm and job tag are
// checked up front, a duplicate when it executes, and a program order
// that stops making progress is reported as a deadlock.
#ifndef MEPIPE_SIM_ENGINE_H_
#define MEPIPE_SIM_ENGINE_H_

#include <vector>

#include "common/units.h"
#include "sched/schedule.h"
#include "sim/cost_model.h"
#include "sim/fault.h"

namespace mepipe::sim {

// How deferred weight-gradient ops are executed.
enum class WgradMode {
  kImmediate,  // W runs right after its producing B (the Fig. 11 baseline)
  kFillWhole,  // whole-W tasks fill bubbles; remainder drains at the end (ZB)
  kFillGemms,  // per-GEMM tasks fill bubbles (MEPipe fine-grained, Fig. 12)
};

struct EngineOptions {
  WgradMode wgrad_mode = WgradMode::kFillGemms;
  // Per-stage activation-memory budget (bytes). Deferring weight
  // gradients retains activations and activation gradients; before an op
  // that allocates would overflow the budget, the stage drains deferred W
  // work to free memory first — the paper's rule that forwards/backwards
  // proceed "as soon as there is enough memory" (§5, Figure 7b), and the
  // mechanism that keeps zero-bubble-style schedules at 1F1B-class
  // memory instead of deferring every W to the tail.
  // Empty = unlimited; otherwise one entry per stage (a 0 entry means
  // that stage is unbudgeted; negative entries throw CheckError). When
  // the deferred-W queue runs dry before enough memory is freed, the op
  // is admitted anyway and the violation is recorded in StageMetrics —
  // or, with strict_activation_budget, the engine throws.
  std::vector<Bytes> activation_budget;
  // Throw CheckError on an activation-budget violation instead of
  // recording it (see activation_budget above).
  bool strict_activation_budget = false;
  // Record SimResult::timeline: one span per compute op, per-GEMM W
  // piece, transfer and DP bucket, sorted by start. Callers that read
  // only the summary fields turn it off; every other field of the result
  // is bit-identical either way, and the timeline stays empty (no
  // storage reserved).
  bool record_timeline = true;
  // Record the per-stage activation-memory series over time (enables
  // Figure-1-style memory plots; costs memory proportional to op count).
  bool record_memory_timeline = false;
  // Scripted fault plan (sim/fault.h). When set, compute and transfer
  // durations are priced time-aware through a FaultyCostModel wrapped
  // around the engine's cost model: stragglers dilate stage compute,
  // degraded links and retries stretch transfers, and fail-stop events
  // suspend every stage for detection + restart + replay of the work
  // lost since the plan's last checkpoint. The plan's windows are
  // exported in SimResult::fault_spans. Value-semantic: assigning a
  // FaultPlan copies it into shared storage.
  FaultPlanRef fault_plan;
  // Overlap the per-bucket data-parallel gradient all-reduce with the
  // pipeline. After the compute/transfer timeline is fixed, each stage's
  // gradient buckets (one kDpSync op per chunk, sched::DpSyncOps) launch
  // on that stage's DP comm stream as soon as their last gradient
  // producer completes, serialized per stream. Buckets only *read*
  // finished gradients and (under dp_link_shared) yield the fabric to
  // pipeline transfers, so the pipeline timeline is provably unchanged;
  // only how much sync hides inside it emerges. No-op when the cost
  // model does not price buckets (CostModel::DpSyncTime == 0).
  bool dp_overlap = false;
  // The DP ring shares the fabric with inter-stage pipeline transfers
  // (single PCIe/IB NIC per device, §3): while a pipeline transfer
  // touching a bucket's stage is in flight, that bucket's transmission
  // is suspended. DP always yields, so pipeline transfers are never
  // delayed — contention shows up purely as later sync completion.
  bool dp_link_shared = false;
};

// One point of a stage's activation-memory series.
struct MemoryPoint {
  Seconds time = 0;
  Bytes bytes = 0;  // resident activation (+act-grad) bytes after `time`
};

struct OpSpan {
  int stage = 0;
  sched::OpId op;
  Seconds start = 0;
  Seconds end = 0;
  bool is_transfer = false;
};

struct StageMetrics {
  Seconds busy = 0;             // sum of compute-op durations
  Bytes peak_activation = 0;    // activations + retained act-grads
  double bubble_ratio = 0;      // 1 - busy / makespan
  // Idle-gap decomposition of the stage's bubble, attributing lost time
  // to the pipeline phase it falls in (warmup + steady + drain ==
  // makespan − busy). This is what makes rebalancing gains attributable:
  // a straggler inflates the *steady* gaps of its neighbours, while a
  // bad in-flight cap shows up as warmup/drain.
  Seconds warmup_idle = 0;      // before the stage's first compute op
  Seconds steady_idle = 0;      // gaps between its first and last compute op
  Seconds drain_idle = 0;       // after its last compute op
  // Activation-budget violations: ops admitted after the deferred-W
  // queue ran dry with the stage still over budget.
  int budget_violations = 0;
  Bytes budget_overflow_bytes = 0;  // worst overshoot past the budget
  // Wall time this stage's DP comm stream spent on gradient buckets
  // (includes fabric-contention stretch; 0 unless dp_overlap ran).
  Seconds dp_sync = 0;
};

// Data-parallel gradient-sync accounting (all zero unless
// EngineOptions::dp_overlap is set and the cost model prices buckets).
// Invariant: exposed + hidden == serialized, with both terms >= 0 —
// every bucket's dependencies complete by the makespan, so sync work
// past the makespan runs gap-free and the tail can never exceed the
// serialized total.
struct DpSyncStats {
  // Added iteration time if sync ran back-to-back after the pipeline
  // flush instead: max over stages of the stage's summed bucket cost
  // (stages' DP groups all-reduce concurrently).
  Seconds serialized = 0;
  Seconds hidden = 0;      // portion absorbed inside pipeline bubbles
  Seconds exposed = 0;     // tail past the pipeline makespan
  Seconds last_end = 0;    // completion instant of the last bucket
  int buckets = 0;         // buckets scheduled across all stages
};

struct SimResult {
  Seconds makespan = 0;
  double bubble_ratio = 0;      // mean of per-stage bubble ratios
  Bytes peak_activation = 0;    // max over stages
  int budget_violations = 0;    // total over stages
  std::vector<StageMetrics> stages;
  // Overlapped-DP-sync accounting (see DpSyncStats).
  DpSyncStats dp;
  // Compute spans + transfers; kDpSync bucket spans appear here with
  // is_transfer == true when dp_overlap ran (only when record_timeline
  // is set).
  std::vector<OpSpan> timeline;
  // Fault windows applied to this run (only when fault_plan is set).
  std::vector<FaultSpan> fault_spans;
  // Per-stage memory series (only when record_memory_timeline is set).
  std::vector<std::vector<MemoryPoint>> memory_timeline;
};

// Runs the schedule to completion on the discrete-event engine. A
// malformed schedule or budget throws CheckError.
SimResult Simulate(const sched::Schedule& schedule, const CostModel& costs,
                   const EngineOptions& options = {});

// The table replay's knobs: the subset of EngineOptions the surrogate
// prices a clean run with, same semantics.
struct TableOptions {
  WgradMode wgrad_mode = WgradMode::kFillGemms;
  std::vector<Bytes> activation_budget;  // empty = unbudgeted
  // Schedule the per-bucket DP sync stream against the finished run
  // (SimResult::dp); without it the caller prices the monolithic sync.
  bool dp_overlap = false;
};

// Runs the schedule on the same kernel with point-to-point transfer
// arrivals and no timeline. The result carries every summary field of
// Simulate's (makespan, bubbles, per-stage busy/idle/peak/overflow, DP
// stats); timeline, fault spans and memory series stay empty. A
// malformed schedule or budget throws CheckError.
SimResult PriceScheduleTable(const sched::Schedule& schedule, const CostModel& costs,
                             const TableOptions& options = {});

}  // namespace mepipe::sim

#endif  // MEPIPE_SIM_ENGINE_H_
