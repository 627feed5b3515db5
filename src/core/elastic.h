// Online elastic runtime: detect mid-run, re-plan live, degrade
// gracefully to surviving replicas.
//
// Everything the repo had so far is offline: core/rebalance replans from
// a *complete* trace, and the PR-4 replica restart replays on the *same*
// fleet shape, idling survivors while a lost replica recovers. This
// control loop turns those pieces into an online runtime over the
// wall-clock training-run simulator (core/resilience):
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
//       redistributed (priced via TrainingCostModel::CheckpointShardBytes
//       over the DP fabric in hw::CommModel by PriceElasticShapes), the
//       checkpoint interval is re-solved via OptimalCheckpointInterval
//       for the surviving fleet's MTBF, and the run continues at reduced
//       throughput until the configured repair time restores the node,
//       when the ring re-expands for another reshard barrier.
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
  // re-expansion (overridden per shape by reshard_stall_by_survivors
  // when PriceElasticShapes filled it).
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

  // ---- Engine-grounded pricing overrides ---------------------------------
  // All empty/zero = the analytic defaults (degraded iteration time
  // scales as dp/survivors; per-stage busy is uniform). PriceElasticShapes
  // fills them from discrete-event measurements. Indexed [survivors-1].
  std::vector<Seconds> iteration_time_by_survivors;  // wall per degraded iteration
  std::vector<double> useful_fraction_by_survivors;  // clean-iteration credit each
  std::vector<Seconds> reshard_stall_by_survivors;   // barrier entering that shape
  std::vector<std::uint8_t> shape_feasible;          // empty = every shape feasible
  // Canonical plan-state iteration times on the full fleet (0 = analytic).
  Seconds straggled_iteration_time = 0;        // even units, straggler active
  Seconds mitigated_iteration_time = 0;        // re-planned units, straggler active
  // Canonical per-stage busy vectors for the detector (empty = analytic).
  // Re-planned units after the straggler is gone always run analytic.
  std::vector<Seconds> clean_stage_busy;
  std::vector<Seconds> straggled_stage_busy;
  std::vector<Seconds> mitigated_stage_busy;

  // ---- Surrogate shape triage (core/surrogate) ---------------------------
  // Off (the default): every surviving-fleet shape keeps the full-fleet
  // strategy's partitioning verbatim — bit-identical to the pre-surrogate
  // behavior. On: for each shape, PriceElasticShapes first prices
  // partitioning variants of the strategy (SPP splits for slice methods
  // — never CP/TP/PP, which would change the replica's GPU footprint)
  // with the analytic surrogate, and runs the exact discrete-event engine
  // only on the variant the surrogate picked. A degraded fleet often
  // prefers a different slice split than the full fleet (more
  // micro-batches per replica), and the triage makes that search
  // affordable inside a live re-plan. Ties and the all-infeasible
  // fallback keep the base strategy.
  bool surrogate_shape_search = false;
  std::vector<int> shape_slice_candidates;  // SPP variants; empty = base only
  // Optional cross-run pricing cache (not owned; thread-safe).
  SurrogateCache* surrogate_cache = nullptr;

  // Throws CheckError on malformed options (run.Validate(), negative
  // stalls/repair, straggler slowdown < 1 or stage out of range,
  // detector.Validate(), override vectors of the wrong length, ...).
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
  std::int64_t iterations_completed = 0;  // degraded iterations count too
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

// Simulates a training run whose clean full-fleet iteration takes
// `iteration_time` seconds under the elastic control loop. Throws
// CheckError on non-positive iteration times or invalid options.
ElasticMetrics SimulateElasticRun(Seconds iteration_time, const ElasticOptions& options);

// ---- Engine-grounded shape pricing ----------------------------------------

// One surviving-fleet shape, priced on the discrete-event engine.
struct ElasticShape {
  int survivors = 0;
  bool feasible = false;
  // The partitioning this shape runs (dp = survivors). Equal to the
  // full-fleet strategy unless surrogate_shape_search re-split it.
  Strategy strategy;
  int surrogate_variants = 0;   // variants triaged for this shape (0 = search off)
  std::string note;             // "ok" or why the shape cannot run
  Seconds iteration_time = 0;   // wall per degraded iteration
  double useful_fraction = 1;   // clean-iteration credit per degraded iteration
  Seconds reshard_stall = 0;    // shard-redistribution barrier entering it
  int micros = 0;
  // sched/validate violations of the shape's schedule under the
  // shrunken fleet's activation budget (-1 = not checked).
  int invariant_violations = -1;
};

struct ElasticPricing {
  Seconds clean_iteration_time = 0;
  std::vector<ElasticShape> shapes;  // index s-1 for s in [1, dp]
  // Canonical straggler plan states on the full fleet (0 = the
  // mitigation path was not priced).
  Seconds straggled_iteration_time = 0;
  Seconds mitigated_iteration_time = 0;
  bool mitigation_adopted = false;
  // Re-planned / re-sharded schedules that passed CheckScheduleInvariants
  // under their fleet shape's activation budget.
  int validated_schedules = 0;
};

// Prices every surviving-fleet shape of `strategy` (dp shrinking from
// strategy.dp down to 1) plus — when options.straggler injects one — the
// straggler-mitigation plan states, all on the discrete-event engine via
// SimulateIteration, and fills options' override vectors so the
// subsequent SimulateElasticRun consumes measured times instead of the
// analytic defaults:
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
                                  int global_batch, ElasticOptions& options,
                                  const IterationOptions& iteration = {});

// Convenience: PriceElasticShapes + SimulateElasticRun on the measured
// clean iteration time.
ElasticMetrics SimulateElasticRun(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterSpec& cluster,
                                  int global_batch, ElasticOptions options,
                                  const IterationOptions& iteration = {});

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_ELASTIC_H_
