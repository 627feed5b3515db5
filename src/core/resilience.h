// Multi-iteration training-run resilience simulator — §9's reliability
// discussion reproduced by measurement instead of assertion.
//
// The analytic FailureOverheadFraction (core/deployment.h) asserts the
// expected overhead of failures + checkpointing in closed form. This
// runner makes the same quantity *emerge*: it measures one iteration on
// the discrete-event engine, then steps a training run forward, drawing
// Poisson hardware failures from the ReliabilityOptions MTBF, injecting
// checkpoint-write pauses at the configured interval, and on each
// failure rolling progress back to the last checkpoint (detection +
// restart stall, then replay of the lost work). The measured
// overhead_fraction cross-validates the closed form — and, unlike it,
// the runner also reports goodput, lost seconds, and restart counts,
// and can price individual faulted iterations on the engine via
// FaultPlanForFailure.
//
// Fully deterministic under a fixed seed (splitmix64 sampling; no
// standard-library distributions). The wall clock and its failure
// arrivals are a FailureClock, which the elastic runtime (core/elastic)
// runs on too.
#ifndef MEPIPE_CORE_RESILIENCE_H_
#define MEPIPE_CORE_RESILIENCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/deployment.h"
#include "sched/schedule.h"
#include "sim/engine.h"

namespace mepipe::core {

// The wall clock of a training run under Poisson fail-stops, shared by
// SimulateTrainingRun and SimulateElasticRun. It owns the failure stream
// (splitmix64 from the run's seed), the hazard left before the next
// arrival, the elapsed wall time, the failure count and the runaway
// bound. Hazard is spent in full-fleet-equivalent time: `exposure` is the
// powered share of the fleet (live / dp replicas), so advancing dt spends
// dt * exposure, and the arrival sequence does not depend on what the
// caller does between failures.
class FailureClock {
 public:
  struct Step {
    Seconds done = 0;     // wall advanced
    bool failed = false;  // a failure struck at the end of `done`
  };

  // `target` is the run's useful-time goal. A run that reaches
  // 100 * (target / mtbf + 10) failures cannot make durable progress, and
  // the failure that reaches the bound throws CheckError.
  FailureClock(Seconds mtbf, Seconds target, std::uint64_t seed)
      : mtbf_(mtbf),
        max_failures_(100.0 * (target / mtbf + 10.0)),
        rng_(seed),
        next_(rng_.NextExponential(mtbf)) {}

  // Advances up to dt, stopping at a failure (whose successor is drawn
  // there). A non-positive dt or exposure advances max(dt, 0) and spends
  // no hazard.
  Step Run(Seconds dt, double exposure = 1.0) {
    if (exposure <= 0.0 || dt <= 0.0) {
      const Seconds done = std::max(0.0, dt);
      wall_ += done;
      return {done, false};
    }
    const Seconds spent = dt * exposure;
    if (next_ > spent) {
      next_ -= spent;
      wall_ += dt;
      return {dt, false};
    }
    const Seconds done = next_ / exposure;
    wall_ += done;
    ++failures_;
    MEPIPE_CHECK_LT(failures_, max_failures_)
        << "cluster MTBF " << mtbf_ << "s is too short for the run to make durable progress";
    next_ = rng_.NextExponential(mtbf_);
    return {done, true};
  }

  // Advances through dt without stopping: a failure-atomic barrier stall.
  // It spends the hazard, and a failure that lands inside it strikes at
  // the start of the next Run.
  void RunThrough(Seconds dt, double exposure) {
    if (exposure > 0.0 && dt > 0.0) {
      next_ = std::max(0.0, next_ - dt * exposure);
    }
    wall_ += std::max(0.0, dt);
  }

  Seconds wall() const { return wall_; }
  int failures() const { return failures_; }

 private:
  Seconds mtbf_;
  double max_failures_;
  SplitMixRng rng_;
  Seconds next_;  // hazard left before the next arrival
  Seconds wall_ = 0;
  int failures_ = 0;
};

struct ResilienceOptions {
  ReliabilityOptions reliability;
  // Fleet size; the cluster MTBF is reliability.ClusterMtbf(gpus).
  int gpus = 1024;
  // Length of the simulated run, as useful training progress: either an
  // explicit duration, or (when 0) `iterations` times the iteration time.
  Seconds target_useful_time = 0;
  std::int64_t iterations = 10000;
  std::uint64_t seed = 1;
  // How far a fail-stop rolls the run back. kFullPipeline restores the
  // last durable checkpoint for everyone. kDpReplicaLocal restores the
  // lost replica from a surviving peer at the last completed iteration
  // (the last DP sync point), so only the interrupted iteration's work
  // is replayed while the survivors idle.
  //
  // Contract (enforced by Validate()): dp_replicas >= 1 always —
  // kDpReplicaLocal with dp_replicas < 1 is rejected, not ignored. At
  // dp_replicas == 1 kDpReplicaLocal *silently falls back* to the
  // full-pipeline restore: a single replica has no surviving peer to
  // fetch state from, so the scope distinction is vacuous by definition,
  // not an error. This fallback is part of the documented contract and
  // is pinned by tests.
  sim::RestartScope restart_scope = sim::RestartScope::kFullPipeline;
  // Data-parallel replica count of the simulated job (for restart_scope).
  int dp_replicas = 1;

  // Validates every field: positive gpus/MTBF/checkpoint interval,
  // non-negative recovery and write costs, dp_replicas >= 1 (with a
  // scope-specific message under kDpReplicaLocal). Throws CheckError.
  // Both SimulateTrainingRun and OptimalCheckpointInterval call this
  // up-front — the interval solver validates *before* its goodput scan,
  // whose CheckError-swallowing probe loop would otherwise silently
  // score an invalid configuration as zero goodput everywhere.
  void Validate() const;
};

// One fail-stop event of the simulated run.
struct FailureRecord {
  Seconds wall_time = 0;   // when the failure struck
  Seconds lost_work = 0;   // useful progress rolled back to the checkpoint
  Seconds stall = 0;       // detection + restart downtime
  std::int64_t iteration = 0;      // iteration the failure interrupted
  Seconds iteration_offset = 0;    // how far into that iteration it struck
};

struct ResilienceMetrics {
  Seconds iteration_time = 0;      // one clean iteration (engine-measured)
  Seconds wall_time = 0;           // total elapsed, stalls included
  Seconds useful_time = 0;         // training progress delivered
  Seconds lost_time = 0;           // work redone after rollbacks
  Seconds checkpoint_time = 0;     // spent writing checkpoints (incl. aborted)
  Seconds recovery_time = 0;       // detection + restart stalls
  std::int64_t iterations_completed = 0;
  int restarts = 0;
  int checkpoints_written = 0;     // durable writes only
  // Writes a failure struck mid-stream: their elapsed time counts toward
  // checkpoint_time, but the checkpoint never became durable.
  int checkpoints_aborted = 0;
  double goodput = 0;              // useful_time / wall_time
  // 1 - goodput: the measured analogue of FailureOverheadFraction.
  double overhead_fraction = 0;
  // The first 1024 events; the counters above are always exact.
  std::vector<FailureRecord> failures;
};

// Simulates a training run whose clean iteration takes `iteration_time`
// seconds. Throws CheckError on non-positive iteration times or GPU
// counts.
ResilienceMetrics SimulateTrainingRun(Seconds iteration_time,
                                      const ResilienceOptions& options = {});

// Same, but measures the iteration time by executing `schedule` against
// `costs` on the discrete-event engine first.
ResilienceMetrics SimulateTrainingRun(const sched::Schedule& schedule,
                                      const sim::CostModel& costs,
                                      const ResilienceOptions& options = {});

// Scripts the engine-level fault plan reproducing `failure` inside its
// iteration: a fail-stop at the failure's offset into the iteration with
// the record's detection + restart stall, restarting from the iteration
// start. Feed to EngineOptions::fault_plan to see the failure disrupt an
// actual timeline (trace export, schedule-sensitivity studies). Under
// kDpReplicaLocal the plan carries the replica scope and marks the
// iteration start as a DP sync point, so the engine's downtime window is
// labelled as a replica-local replay.
sim::FaultPlan FaultPlanForFailure(
    const FailureRecord& failure, Seconds iteration_time,
    const ReliabilityOptions& reliability,
    sim::RestartScope scope = sim::RestartScope::kFullPipeline);

// ---- Young/Daly checkpoint-interval solver --------------------------------
//
// For write cost w and cluster MTBF M, Young's first-order optimum is
// sqrt(2 w M); Daly's second-order refinement
//   T = sqrt(2 w M) · [1 + (1/3)·sqrt(w/(2M)) + (1/9)·(w/(2M))] − w
// (valid for w < 2M; T = M otherwise). Both derive from the analytic
// overhead model; `refined` then hones the answer against the
// SimulateTrainingRun Monte-Carlo itself — a coarse log-spaced bracket
// scan followed by golden-section maximization of simulated goodput.

struct CheckpointIntervalOptions {
  // Search bounds for the refinement; 0 = derive from the Daly point
  // ([daly/16, daly·16], floored at the write cost).
  Seconds min_interval = 0;
  Seconds max_interval = 0;
  int coarse_points = 17;      // log-spaced bracketing scan
  int golden_iterations = 32;  // golden-section steps inside the bracket
};

struct CheckpointIntervalSolution {
  Seconds mtbf = 0;     // cluster-level MTBF the solver used
  Seconds young = 0;    // sqrt(2 w M)
  Seconds daly = 0;     // Young + second-order correction
  Seconds refined = 0;  // simulation-refined goodput argmax
  double goodput = 0;   // simulated goodput at `refined`
};

// Solves for the goodput-optimal checkpoint interval of a run whose
// clean iteration takes `iteration_time` under `base`'s failure model
// (base.reliability.checkpoint_interval is ignored — it is the unknown).
// Throws CheckError on non-positive write cost or iteration time.
CheckpointIntervalSolution OptimalCheckpointInterval(
    Seconds iteration_time, const ResilienceOptions& base,
    const CheckpointIntervalOptions& options = {});

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_RESILIENCE_H_
