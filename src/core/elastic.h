// Online elastic runtime: detect mid-run, re-plan live, degrade
// gracefully to surviving replicas.
//
// Everything the repo had so far is offline: core/rebalance replans from
// a *complete* trace, and the PR-4 replica restart replays on the *same*
// fleet shape, idling survivors while a lost replica recovers. This
// control loop turns those pieces into an online runtime on the
// training-run simulator's wall clock (core/resilience's FailureClock):
//
//   (a) Straggler path — a sliding window of per-stage busy times
//       (rebalance::SlowdownWindowEstimator) watches for persistent
//       deviation from the plan currently executing. On a confirmed
//       deviation the loop re-plans live: it feeds the *detected*
//       windowed profile to PartitionUnitsBySpeed, pays an explicit
//       re-plan + weight-redistribution stall (ElasticOptions::
//       replan_stall), and continues on the regenerated assignment. The
//       hysteresis gate makes a transient one-window straggler a no-op
//       and a persistent one a single re-plan; a straggler that *clears*
//       reads as deviation in the opposite direction and triggers the
//       symmetric revert.
//
//   (b) Fail-stop path — on a replica loss the ElasticPolicy decides:
//       kFrozen stops the world until the node is repaired and restores
//       the durable checkpoint; kRestart keeps survivors' state but
//       idles them through repair + recovery (PR 4 on a repair-time
//       axis); kElastic re-shards to the survivors — the DP ring
//       shrinks, the lost replica's ZeRO-1 optimizer shard is
//       redistributed, the checkpoint interval is re-solved via
//       OptimalCheckpointInterval for the surviving fleet's MTBF, and
//       the run continues at reduced throughput until the configured
//       repair time restores the node, when the ring re-expands for
//       another reshard barrier. Under every policy, losing the last
//       live replica rolls back to the durable checkpoint, and a write
//       a failure aborted is retried at once while it is still due.
//
// PriceElasticShapes measures every fleet shape on the discrete-event
// engine; the loop reads that ElasticPricing in place of its analytic
// defaults (dp/survivors iteration scaling, uniform busy) when given it.
//
// Progress is accounted in *clean-equivalent seconds* (one clean
// full-fleet iteration delivers iteration_time of useful progress), so
// goodput is comparable across policies and fleet shapes. Fully
// deterministic under a fixed seed: failures, straggler onsets, and
// observation noise draw from three independent splitmix64 streams, so
// the failure arrival sequence is identical across the three policies.
#ifndef MEPIPE_CORE_ELASTIC_H_
#define MEPIPE_CORE_ELASTIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/iteration.h"
#include "core/rebalance.h"
#include "core/resilience.h"
#include "core/surrogate.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "sim/fault.h"

namespace mepipe::core {

// What the run does when a replica is lost (see file comment).
enum class ElasticPolicy { kFrozen, kRestart, kElastic };

const char* ToString(ElasticPolicy policy);

// Synthetic straggler arrivals for the online run: onsets are Poisson on
// the wall clock, each dilating one pipeline stage by `slowdown` for
// `duration` seconds (0 = until the end of the run). The detector
// observes per-stage busy times perturbed by lognormal noise of
// `busy_noise_sigma` — the knob that exercises the hysteresis gate.
struct StragglerModel {
  Seconds mtbf = 0;     // mean wall-clock time between onsets; 0 = none
  double slowdown = 1.5;
  Seconds duration = 0;
  int stage = -1;       // fixed straggling stage, or -1 = uniform per onset
  double busy_noise_sigma = 0;
};

struct ElasticOptions {
  // Failure model, fleet size, dp_replicas, seed, and run length.
  // run.reliability.checkpoint_interval is the fixed interval when
  // resolve_checkpoint_interval is off; otherwise the solver overrides
  // it per fleet shape.
  ResilienceOptions run;
  ElasticPolicy policy = ElasticPolicy::kElastic;

  // Wall-clock wait for a lost node to be replaced/repaired. Every
  // policy pays it: frozen/restart as a full-fleet stall, elastic as a
  // degraded-throughput window.
  Seconds repair_time = 1800;

  // Explicit transition stalls (who pays which stall is the DESIGN.md
  // state machine). replan_stall covers schedule regeneration + weight
  // redistribution after a straggler re-plan; reshard_stall covers the
  // ZeRO-shard redistribution barrier on every DP-ring shrink or
  // re-expansion (a measured shape's own barrier replaces it).
  Seconds replan_stall = 30;
  Seconds reshard_stall = 20;

  StragglerModel straggler;
  // Windowed detection + hysteresis configuration (core/rebalance).
  WindowedProfileOptions detector;

  // Pipeline shape of the job for the analytic busy/partition model.
  int pipeline_stages = 8;
  int units_per_stage = 4;

  // Re-solve OptimalCheckpointInterval for every surviving-fleet shape
  // the run visits (memoized per shape); the solver's Monte-Carlo
  // horizon is `interval_solve_mtbfs` cluster MTBFs and its effort is
  // the trimmed default below (it runs once per shape, not per cell).
  bool resolve_checkpoint_interval = true;
  double interval_solve_mtbfs = 50.0;
  CheckpointIntervalOptions interval_solver{0, 0, /*coarse_points=*/9,
                                            /*golden_iterations=*/8};

  // ---- Surrogate shape triage (core/surrogate) ---------------------------
  // Empty (the default): every surviving-fleet shape keeps the full-fleet
  // strategy's partitioning verbatim. Non-empty: for each shape,
  // PriceElasticShapes first prices the strategy's SPP re-splits to these
  // values (slice methods only — never CP/TP/PP, which would change the
  // replica's GPU footprint) with the analytic surrogate, and runs the
  // exact discrete-event engine only on the variant the surrogate picked.
  // A degraded fleet often prefers a different slice split than the full
  // fleet (more micro-batches per replica), and the triage makes that
  // search affordable inside a live re-plan. Ties and the all-infeasible
  // fallback keep the base strategy.
  std::vector<int> shape_slice_candidates;
  // Optional cross-run pricing cache (not owned; thread-safe).
  SurrogateCache* surrogate_cache = nullptr;

  // Throws CheckError on malformed options (run.Validate(), negative
  // stalls/repair, straggler slowdown < 1 or stage out of range,
  // detector.Validate(), slice candidates < 1, ...).
  void Validate() const;
};

// What the elastic run measured.
struct ElasticMetrics {
  ElasticPolicy policy = ElasticPolicy::kElastic;
  Seconds iteration_time = 0;   // one clean full-fleet iteration
  Seconds wall_time = 0;        // total elapsed, stalls included
  Seconds useful_time = 0;      // clean-equivalent progress delivered
  Seconds lost_time = 0;        // rolled-back + interrupted-iteration work
  Seconds checkpoint_time = 0;  // spent writing checkpoints (incl. aborted)
  Seconds recovery_time = 0;    // restore-from-checkpoint/peer stalls
  Seconds repair_wait_time = 0; // wall fully stopped waiting for repairs
  Seconds reshard_time = 0;     // shrink/expand shard-redistribution stalls
  Seconds replan_time = 0;      // straggler re-plan stalls
  Seconds degraded_time = 0;    // wall spent with < dp_replicas live
  double degraded_fraction = 0; // degraded_time / wall_time
  // Every iteration the run trained, degraded ones and replays of
  // rolled-back work included (ResilienceMetrics counts net progress).
  std::int64_t iterations_completed = 0;
  int failures = 0;
  int reshards = 0;             // DP-ring shrink transitions
  int expansions = 0;           // DP-ring re-expansions after repair
  int replans = 0;              // straggler-triggered live re-plans
  int straggler_onsets = 0;
  int checkpoints_written = 0;
  int checkpoints_aborted = 0;
  double goodput = 0;           // useful_time / wall_time
  double overhead_fraction = 0; // 1 - goodput
  // Solver-chosen interval per surviving-replica count (index s-1;
  // 0 = that shape was never visited).
  std::vector<Seconds> checkpoint_interval_by_survivors;
  // Elastic event spans on the run's wall clock (failures, repair
  // windows, reshard barriers, re-plans, straggler windows), the first
  // 4096 of them; feed to the trace-layer span overloads.
  std::vector<sim::FaultSpan> events;
};

// ---- Engine-grounded shape pricing ----------------------------------------

// One surviving-fleet shape, priced on the discrete-event engine.
struct ElasticShape {
  int survivors = 0;
  bool feasible = false;
  // The partitioning this shape runs (dp = survivors). Equal to the
  // full-fleet strategy unless the shape_slice_candidates triage re-split it.
  Strategy strategy;
  int surrogate_variants = 0;   // variants triaged for this shape (0 = no triage)
  std::string note;             // "ok" or why the shape cannot run
  Seconds iteration_time = 0;   // wall per degraded iteration
  double useful_fraction = 1;   // clean-iteration credit per degraded iteration
  Seconds reshard_stall = 0;    // shard-redistribution barrier entering it
  int micros = 0;
  // sched/validate violations of the shape's schedule under the
  // shrunken fleet's activation budget (-1 = not checked).
  int invariant_violations = -1;
};

// Everything PriceElasticShapes measured; SimulateElasticRun reads it in
// place of its analytic defaults.
struct ElasticPricing {
  Seconds clean_iteration_time = 0;
  std::vector<ElasticShape> shapes;  // index s-1 for s in [1, dp]
  // Canonical straggler plan states on the full fleet (0 = the
  // mitigation path was not priced).
  Seconds straggled_iteration_time = 0;
  Seconds mitigated_iteration_time = 0;
  bool mitigation_adopted = false;
  // Canonical per-stage busy vectors for the detector (empty = not
  // priced; re-planned units after the straggler is gone run analytic).
  std::vector<Seconds> clean_stage_busy;
  std::vector<Seconds> straggled_stage_busy;
  std::vector<Seconds> mitigated_stage_busy;
  // Re-planned / re-sharded schedules that passed CheckScheduleInvariants
  // under their fleet shape's activation budget.
  int validated_schedules = 0;
};

// Simulates a training run whose clean full-fleet iteration takes
// `iteration_time` seconds under the elastic control loop, on `measured`
// shapes and busy vectors when given (elastic falls back to an outage on
// a shape it marks infeasible). Throws CheckError on non-positive
// iteration times, invalid options, or a `measured` without dp_replicas
// shapes and pipeline_stages busy entries.
ElasticMetrics SimulateElasticRun(Seconds iteration_time, const ElasticOptions& options,
                                  const ElasticPricing* measured = nullptr);

// Prices every surviving-fleet shape of `strategy` (dp shrinking from
// strategy.dp down to 1) plus — when options.straggler injects one — the
// straggler-mitigation plan states, all on the discrete-event engine via
// SimulateIteration, and returns the measurements for SimulateElasticRun
// to read instead of its analytic defaults (pass it options whose
// pipeline_stages is strategy.pp, as the convenience overload below
// does):
//   - the shrunken cluster keeps the per-node shape (nodes scale with
//     survivors); shapes whose world size does not fill whole nodes are
//     marked infeasible and the elastic loop falls back to a
//     restart-style outage for them;
//   - micro-batches are re-split as ceil(global_batch / survivors), and
//     the clean-equivalent credit of a degraded iteration follows from
//     the extra samples it processes;
//   - the reshard barrier entering a shape is the all-gather of the
//     departed replica's worst ZeRO-1 shard (TrainingCostModel::
//     CheckpointShardBytes) over the DP fabric
//     (hw::ClusterTopology::LinkFor(hw::Dim::kData, ...), hw::CommModel);
//   - every shape's schedule (and the adopted mitigation's re-planned
//     schedule) is validated against sched/validate invariants under an
//     activation cap derived from that shape's engine budget.
// Throws CheckError when strategy.dp disagrees with options.run.dp_replicas
// or the full-fleet strategy itself is infeasible.
ElasticPricing PriceElasticShapes(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterSpec& cluster,
                                  int global_batch, const ElasticOptions& options,
                                  const IterationOptions& iteration = {});

// Convenience: sets options' pipeline_stages and units_per_stage from
// `strategy`, then runs PriceElasticShapes and SimulateElasticRun on its
// measurements.
ElasticMetrics SimulateElasticRun(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterSpec& cluster,
                                  int global_batch, ElasticOptions options,
                                  const IterationOptions& iteration = {});

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_ELASTIC_H_
