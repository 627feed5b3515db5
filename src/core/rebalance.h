// Straggler-aware rebalancing — scheduling *around* measured slowdowns
// instead of merely pricing them.
//
// The fault layer (sim/fault.h) measures how much a straggler costs a
// fixed schedule; this subsystem closes the loop. Given a per-stage
// slowdown profile — supplied directly, or estimated from a prior run's
// per-stage busy times under a FaultPlan — it produces a mitigated plan
// along three axes:
//   1. Layer re-partitioning: move partition units off the slow stage so
//      that units_i · slowdown_i is equalized (a bottleneck-minimizing
//      partitioner generalizing the balanced split core/training_cost
//      assumes).
//   2. Slice re-balancing: re-solve the TeraPipe-style FLOPs-balanced
//      sample partition (model::BalancedSlices) for spans that drifted
//      from it.
//   3. Cap re-tuning: shrink/grow the per-stage in-flight caps with the
//      stage's new layer share so memory stays within the old envelope,
//      and regenerate the program order with per-stage abstract time
//      scaling (sched::GeneratorOptions::stage_time_scale) so the
//      interleaving wraps around the known-slow stage.
// MitigateStragglers drives the full estimate → rebalance → resimulate
// loop and reports makespan before/after mitigation under the *same*
// fault plan.
#ifndef MEPIPE_CORE_REBALANCE_H_
#define MEPIPE_CORE_REBALANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "model/flops.h"
#include "model/slicing.h"
#include "model/transformer.h"
#include "sched/op.h"
#include "sched/schedule.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace mepipe::core {

// Measured (or asserted) per-stage compute slowdown: stage i runs its
// compute `slowdown[i]`× slower than the cost model's clean rate.
struct StageProfile {
  std::vector<double> slowdown;  // one entry per stage, each >= 1

  bool empty() const { return slowdown.empty(); }
  double max_slowdown() const;
  // Throws CheckError unless there is exactly one finite entry >= 1 per
  // stage.
  void Validate(int stages) const;
};

// Estimates the profile from two runs of the *same schedule*: a clean
// one and one under a fault plan. A straggler dilates every compute op
// it covers, so the stage's busy-time ratio recovers the average
// dilation; stages untouched by faults come out at 1. Requires matching
// stage counts; stages with zero clean busy time report 1.
StageProfile EstimateStageSlowdowns(const sim::SimResult& clean,
                                    const sim::SimResult& faulted);

// Derives the profile analytically from the plan itself: the
// time-averaged straggler dilation of each stage over [0, horizon)
// (windows clipped to the horizon). Use when no clean baseline run is
// available. Only straggler faults contribute; link/fail-stop faults do
// not slow *compute*.
StageProfile EstimateStageSlowdowns(const sim::FaultPlan& plan, int stages, Seconds horizon);

// ---- Windowed online estimation (the elastic runtime's detector) ----------
//
// The offline estimators above need a complete trace; the online
// control loop (core/elastic) only ever has the last few iterations'
// per-stage busy times — a *partial window*. The windowed overload
// estimates from busy-time sums accumulated over `observed` iterations,
// and SlowdownWindowEstimator adds the confidence/hysteresis gate that
// keeps measurement noise from triggering re-plan thrashing.

struct WindowedProfileOptions {
  // Iterations per detection window.
  int window = 8;
  // Confidence gate: a (partial) window is only trusted once it holds at
  // least this many observations.
  int min_observations = 4;
  // A window counts as deviant when some stage's busy time departs from
  // the baseline by at least this factor (in either direction — a stage
  // that *speeds up* relative to the adopted plan signals a cleared
  // straggler just as a slowdown signals a new one).
  double trigger_threshold = 1.15;
  // Hysteresis: this many *consecutive* deviant windows are required
  // before PersistentDeviation() reports true. A transient one-window
  // blip can never trigger a re-plan when this is >= 2.
  int hysteresis_windows = 2;

  // Throws CheckError on window < 1, min_observations outside
  // [1, window], trigger_threshold <= 1, or hysteresis_windows < 1.
  void Validate() const;
};

// Estimates a profile from a partial window: `window_busy_sum[i]` is the
// per-stage busy time accumulated over `observed` iterations, and
// `baseline_busy[i]` the expected busy time of one iteration under the
// current plan. Per-stage ratios are normalized by their (lower) median
// so that a *uniform* dilation — a degraded fleet running every stage
// proportionally slower — does not read as a straggler, then floored at
// 1 to satisfy the StageProfile contract. Stages with zero baseline
// report 1. Throws CheckError on size mismatch, observed < 1, or
// negative busy times.
StageProfile EstimateStageSlowdowns(const std::vector<Seconds>& baseline_busy,
                                    const std::vector<Seconds>& window_busy_sum, int observed);

// Sliding-window slowdown detector. Feed one Observe() per iteration;
// every `window` observations close a window, whose median-normalized
// busy ratios are tested against the trigger threshold. Only after
// `hysteresis_windows` consecutive deviant windows does
// PersistentDeviation() fire — and a single clean window re-arms it.
// After the control loop adopts a re-plan it calls Reset() with the new
// plan's expected busy times, so the detector always measures deviation
// from *the plan currently executing*.
class SlowdownWindowEstimator {
 public:
  // An empty baseline makes a dormant estimator (Observe() checks).
  SlowdownWindowEstimator() = default;
  explicit SlowdownWindowEstimator(std::vector<Seconds> baseline_busy,
                                   const WindowedProfileOptions& options = {});

  // Replaces the baseline and clears every window and hysteresis state.
  void Reset(std::vector<Seconds> baseline_busy);

  // Feeds one iteration's per-stage busy times; returns true when this
  // observation closed a window. Throws CheckError on size mismatch or
  // an unset baseline.
  bool Observe(const std::vector<Seconds>& busy);

  // Closes the currently accumulating window early (a state transition
  // does not wait for a full window). Counts only when the partial
  // window passes the confidence gate (>= min_observations); otherwise
  // the observations are discarded. Returns true when a window closed.
  bool ClosePartialWindow();

  // Profile over the currently accumulating partial window (all-1 when
  // under the confidence gate).
  StageProfile PartialProfile() const;

  // Profile of the last closed window (empty before the first closes).
  const StageProfile& WindowProfile() const;
  // Raw median-normalized busy ratios of the last closed window —
  // unlike WindowProfile they can dip below 1 (a stage running *faster*
  // than the plan expected). Empty before the first window closes.
  const std::vector<double>& WindowRatios() const;

  // True once >= hysteresis_windows consecutive closed windows were
  // deviant (threshold crossed in either direction).
  bool PersistentDeviation() const;

  int deviant_windows() const { return deviant_windows_; }
  int windows_closed() const { return windows_closed_; }
  const WindowedProfileOptions& options() const { return options_; }
  const std::vector<Seconds>& baseline() const { return baseline_; }

 private:
  void CloseWindow();

  WindowedProfileOptions options_;
  std::vector<Seconds> baseline_;
  std::vector<Seconds> accum_;     // busy sums of the open window
  int accum_count_ = 0;
  StageProfile window_profile_;    // last closed window
  std::vector<double> window_ratios_;
  int deviant_windows_ = 0;        // consecutive deviant closed windows
  int windows_closed_ = 0;
};

// Bottleneck-minimizing partitioner: splits `total_units` identical
// units across `slowdown.size()` workers so that the maximum of
// units_i · slowdown_i is minimized, subject to units_i >= min_units.
// Exact (binary search over the candidate bottlenecks + greedy trim).
// Generalizes the uniform split: all-equal slowdowns return the even
// partition. Throws CheckError when total_units < workers · min_units
// or any slowdown is not finite and positive.
std::vector<int> PartitionUnitsBySpeed(int total_units, const std::vector<double>& slowdown,
                                       int min_units);

struct RebalanceOptions {
  // Mitigation axes (see file comment). Each can be disabled to ablate.
  bool repartition_layers = true;
  bool rebalance_slices = true;
  bool retune_caps = true;

  // Layer re-partitioning: partition units per chunk in the unmitigated
  // plan (total = units_per_chunk · num_chunks). 0 disables axis 1.
  int units_per_chunk = 0;
  int min_units_per_chunk = 1;

  // Slice re-balancing: model + per-rank sequence the slices partition.
  // A default-constructed config (hidden == 0) or seq_len == 0 disables
  // axis 2.
  model::TransformerConfig config;
  std::int64_t seq_len = 0;
  std::int64_t slice_alignment = 1;
  // The spans the unmitigated cost model prices (empty = FLOPs-balanced
  // spans of (config, seq_len), aligned to slice_alignment). The re-solve
  // targets those FLOPs-balanced spans, so axis 2 is a no-op unless
  // base_spans differ from them.
  std::vector<model::SliceSpan> base_spans;

  // Cap re-tuning: the unmitigated per-stage in-flight caps (empty
  // disables axis 3; RegenerateForProfile derives them from its
  // schedule via PeakRetainedForwards).
  std::vector<int> base_caps;
};

// The mitigated assignment: what moved, and the predicted payoff.
struct RebalancePlan {
  StageProfile profile;

  // Axis 1 — partition units per global chunk (old == new when disabled).
  std::vector<int> old_units;
  std::vector<int> new_units;
  // Axis 2 — slice spans (empty when disabled).
  std::vector<model::SliceSpan> old_spans;
  std::vector<model::SliceSpan> new_spans;
  // Axis 3 — per-stage in-flight caps (empty when disabled).
  std::vector<int> old_caps;
  std::vector<int> new_caps;

  // Predicted bottleneck ratio max_i(load_old) / max_i(load_new) where
  // load_i = slowdown_i · units on stage i; 1.0 when axis 1 is off.
  double predicted_gain = 1.0;

  bool repartitioned() const { return old_units != new_units; }
  bool resliced() const { return old_spans != new_spans; }
  bool retuned() const { return old_caps != new_caps; }
  bool any_change() const { return repartitioned() || resliced() || retuned(); }

  // new/old unit share of one chunk / of one stage's chunks (1.0 when
  // axis 1 is off).
  double unit_ratio(int chunk) const;
  double stage_unit_ratio(const sched::PipelineProblem& problem, int stage) const;

  // One-line human summary, e.g.
  //   "units 8,8,8,8 -> 10,9,4,9; caps 7,6,5,4 -> 6,6,9,4; gain 1.60x".
  std::string Summary() const;
  // Per-stage annotation labels for the trace layer (ASCII timeline rows,
  // Chrome-trace thread names), e.g. "x2.00 units 8->4 cap 5->9".
  std::vector<std::string> StageLabels(const sched::PipelineProblem& problem) const;
};

// Computes the mitigated plan for `profile`. Pure planning — nothing is
// simulated. Throws CheckError on inconsistent inputs (profile size,
// base_caps size, base_spans not covering [0, seq_len)).
RebalancePlan Rebalance(const StageProfile& profile, const sched::PipelineProblem& problem,
                        const RebalanceOptions& options);

// Re-plans `schedule` for a per-stage speed profile and regenerates its
// capped program order at the re-planned rates — the step straggler
// mitigation and heterogeneous placement share. Empty
// `rebalance.base_caps` default to the schedule's peak retained forwards,
// floored at the v·s schedulability floor; `plan` receives Rebalance's
// plan for `profile`. The order is regenerated under the plan's caps,
// backward-first with child-count priority, W deferred or not as in
// `schedule`, with each stage's abstract durations scaled by its slowdown
// times its new layer share (so the interleaving is generated against
// the rates the re-planned run will see), and is named
// `schedule.method + suffix`.
sched::Schedule RegenerateForProfile(const sched::Schedule& schedule, const StageProfile& profile,
                                     RebalanceOptions rebalance, const std::string& suffix,
                                     RebalancePlan& plan);

// Adapter re-pricing a base cost model under a RebalancePlan: compute
// times (including per-GEMM W durations) scale with the chunk's unit
// ratio and the slice's re-balanced FLOPs ratio; transfers with the
// slice's token ratio (boundary tensors are layer-count independent);
// activation footprints with both; DP gradient buckets with the chunk's
// unit ratio (a chunk's parameter volume tracks its layer share). The W
// GEMM *count* stays the base model's — the decomposition granularity is
// a property of its chunk shape (inherited forwarding). Works over any
// base model (uniform or training). Holds `base` by reference — it must
// outlive this wrapper, or build through sim::CostModelStack
// (stack.Wrap<core::RebalancedCostModel>(problem, plan, config)), which
// owns the chain.
class RebalancedCostModel : public sim::WrappingCostModel {
 public:
  // `config` prices the slice re-balance (axis 2); pass a default config
  // when plan.resliced() is false. Throws CheckError when the plan's
  // chunk count disagrees with `problem`.
  RebalancedCostModel(const sim::CostModel& base, const sched::PipelineProblem& problem,
                      const RebalancePlan& plan, const model::TransformerConfig& config = {});

  Seconds ComputeTime(const sched::OpId& op) const override;
  Seconds TransferTime(const sched::OpId& producer) const override;
  Bytes ActivationBytes(const sched::OpId& forward) const override;
  Bytes ActGradBytes(const sched::OpId& backward) const override;
  Seconds DpSyncTime(const sched::OpId& bucket) const override;

 private:
  std::vector<double> unit_ratio_;      // per chunk
  std::vector<double> forward_ratio_;   // per slice (empty = 1)
  std::vector<double> backward_ratio_;  // per slice
  std::vector<double> wgrad_ratio_;     // per slice
  std::vector<double> token_ratio_;     // per slice
};

struct MitigationOptions {
  RebalanceOptions rebalance;
  // Engine options for all three runs; its fault_plan field is ignored
  // (the driver installs the plan itself for the faulted/mitigated runs).
  sim::EngineOptions engine;
  // Override the measured profile (empty = estimate from clean vs
  // faulted busy times).
  StageProfile profile;
};

// The estimate → rebalance → resimulate report.
struct MitigationReport {
  StageProfile profile;         // the slowdowns mitigation planned for
  RebalancePlan plan;
  Seconds clean_makespan = 0;     // original schedule, no faults
  Seconds faulted_makespan = 0;   // original schedule under the plan
  Seconds mitigated_makespan = 0; // rebalanced schedule under the plan
  sched::Schedule mitigated_schedule;
  sim::SimResult faulted;
  sim::SimResult mitigated;

  double degradation() const;            // faulted / clean
  double mitigated_degradation() const;  // mitigated / clean
  double improvement() const;            // faulted / mitigated
};

// Runs `schedule` clean and under `faults`, estimates the per-stage
// slowdown, rebalances and regenerates the program order
// (RegenerateForProfile), and re-simulates the mitigated schedule under
// the same fault plan. Throws CheckError on
// invalid inputs.
MitigationReport MitigateStragglers(const sched::Schedule& schedule, const sim::CostModel& costs,
                                    const sim::FaultPlan& faults,
                                    const MitigationOptions& options = {});

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_REBALANCE_H_
