#include "core/resilience.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mepipe::core {
namespace {

// Cap on the per-failure records kept in ResilienceMetrics::failures.
constexpr std::size_t kMaxFailureRecords = 1024;

}  // namespace

void ResilienceOptions::Validate() const {
  MEPIPE_CHECK_GT(gpus, 0);
  if (restart_scope == sim::RestartScope::kDpReplicaLocal) {
    MEPIPE_CHECK_GE(dp_replicas, 1)
        << "kDpReplicaLocal requires dp_replicas >= 1 (dp_replicas == 1 falls "
        << "back to the full-pipeline restore; fewer replicas than one is "
        << "not a job)";
  } else {
    MEPIPE_CHECK_GE(dp_replicas, 1);
  }
  MEPIPE_CHECK_GT(reliability.mtbf_per_1000_gpus, 0.0);
  MEPIPE_CHECK_GT(reliability.checkpoint_interval, 0.0);
  MEPIPE_CHECK_GE(reliability.recovery_time, 0.0);
  MEPIPE_CHECK_GE(reliability.checkpoint_write_cost, 0.0);
}

ResilienceMetrics SimulateTrainingRun(Seconds iteration_time,
                                      const ResilienceOptions& options) {
  MEPIPE_CHECK_GT(iteration_time, 0.0);
  options.Validate();
  const ReliabilityOptions& rel = options.reliability;

  const Seconds target = options.target_useful_time > 0
                             ? options.target_useful_time
                             : static_cast<Seconds>(options.iterations) * iteration_time;
  MEPIPE_CHECK_GT(target, 0.0) << "nothing to simulate";

  // Checkpoint writes and recovery stalls run on the failure clock just
  // like forward progress does, so failures can strike mid-write
  // (aborting the checkpoint) and mid-recovery (restarting the recovery).
  FailureClock clock(rel.ClusterMtbf(options.gpus), target, options.seed);
  const bool replica_local =
      options.restart_scope == sim::RestartScope::kDpReplicaLocal &&
      options.dp_replicas > 1;

  ResilienceMetrics m;
  m.iteration_time = iteration_time;

  Seconds useful = 0;     // durable + tentative training progress
  Seconds ckpt = 0;       // progress covered by the last durable checkpoint

  const auto record_failure = [&](Seconds lost) {
    if (m.failures.size() < kMaxFailureRecords) {
      const auto iteration = static_cast<std::int64_t>(useful / iteration_time);
      m.failures.push_back({clock.wall(), lost, rel.recovery_time, iteration,
                            useful - static_cast<Seconds>(iteration) * iteration_time});
    }
  };

  // A hardware failure just struck: record it, roll progress back to the
  // restore target, then stall for detection + restart. A failure
  // striking mid-recovery loses nothing further (progress is already
  // rolled back) but restarts the recovery from scratch.
  const auto recover = [&]() {
    Seconds restore = ckpt;
    if (replica_local) {
      // Surviving replicas hold the state of the last completed
      // iteration (the last DP sync point); the lost replica restores
      // from a peer and replays only the interrupted iteration.
      const Seconds sync =
          std::floor(useful / iteration_time + 1e-9) * iteration_time;
      restore = std::max(restore, std::min(sync, useful));
    }
    const Seconds lost = useful - restore;
    record_failure(lost);
    useful = restore;
    m.lost_time += lost;
    for (;;) {
      const FailureClock::Step stall = clock.Run(rel.recovery_time);
      m.recovery_time += stall.done;
      if (!stall.failed) {
        return;
      }
      record_failure(0.0);
    }
  };

  while (useful < target) {
    const Seconds to_ckpt = ckpt + rel.checkpoint_interval - useful;
    const Seconds to_done = target - useful;
    // Decided before the step: a replica-local restore at a checkpoint
    // instant can leave to_ckpt a hair below zero, which the clock
    // advances by zero.
    const bool ckpt_due = to_ckpt <= to_done;
    const FailureClock::Step step = clock.Run(std::min(to_ckpt, to_done));
    useful += step.done;
    if (step.failed) {
      recover();
    } else if (ckpt_due && useful < target) {
      const FailureClock::Step write = clock.Run(rel.checkpoint_write_cost);
      m.checkpoint_time += write.done;
      if (write.failed) {
        // Failure strikes mid-write: the elapsed write time is spent but
        // the checkpoint never becomes durable.
        ++m.checkpoints_aborted;
        recover();
      } else {
        ckpt = useful;
        ++m.checkpoints_written;
      }
    }
  }

  m.wall_time = clock.wall();
  m.useful_time = useful;
  m.restarts = clock.failures();
  // Count completed iterations exactly: float accumulation of `useful`
  // can land a hair under an iteration boundary, so snap near-integer
  // quotients before truncating.
  const double iterations = useful / iteration_time;
  const double rounded = std::nearbyint(iterations);
  m.iterations_completed = std::abs(iterations - rounded) <= 1e-6 * std::max(1.0, rounded)
                               ? static_cast<std::int64_t>(rounded)
                               : static_cast<std::int64_t>(iterations);
  m.goodput = m.wall_time > 0 ? useful / m.wall_time : 1.0;
  m.overhead_fraction = 1.0 - m.goodput;
  return m;
}

ResilienceMetrics SimulateTrainingRun(const sched::Schedule& schedule,
                                      const sim::CostModel& costs,
                                      const ResilienceOptions& options) {
  sim::EngineOptions engine_options;
  engine_options.record_timeline = false;  // only the makespan is read
  const sim::SimResult clean = sim::Simulate(schedule, costs, engine_options);
  return SimulateTrainingRun(clean.makespan, options);
}

sim::FaultPlan FaultPlanForFailure(const FailureRecord& failure, Seconds iteration_time,
                                   const ReliabilityOptions& reliability,
                                   sim::RestartScope scope) {
  MEPIPE_CHECK_GT(iteration_time, 0.0);
  sim::FaultPlan plan;
  // Iteration-local view: restart from the iteration start (the implicit
  // t=0 checkpoint — under replica scope also the last DP sync point),
  // stalled for the run-level detection + restart cost.
  const Seconds offset =
      std::clamp(failure.iteration_offset, 0.0, iteration_time);
  plan.fail_stops.push_back({/*stage=*/0, offset,
                             /*detection_delay=*/0.0,
                             /*restart_time=*/reliability.recovery_time});
  plan.restart_scope = scope;
  if (scope == sim::RestartScope::kDpReplicaLocal) {
    plan.sync_points.push_back(0.0);
  }
  return plan;
}

CheckpointIntervalSolution OptimalCheckpointInterval(
    Seconds iteration_time, const ResilienceOptions& base,
    const CheckpointIntervalOptions& options) {
  MEPIPE_CHECK_GT(iteration_time, 0.0);
  // Validate the base options before the goodput scan: goodput_at below
  // deliberately swallows CheckError for intervals the MTBF cannot
  // sustain, which would otherwise also swallow genuinely malformed
  // options (e.g. kDpReplicaLocal with dp_replicas < 1) into a silent
  // all-zero-goodput search. The checkpoint interval itself is the
  // unknown being solved for, so it is exempted from the check.
  {
    ResilienceOptions probe = base;
    probe.reliability.checkpoint_interval =
        std::max(probe.reliability.checkpoint_interval, 1.0);
    probe.Validate();
  }
  const Seconds w = base.reliability.checkpoint_write_cost;
  MEPIPE_CHECK_GT(w, 0.0) << "a free checkpoint has no optimal interval";
  MEPIPE_CHECK_GE(options.coarse_points, 3);
  MEPIPE_CHECK_GE(options.golden_iterations, 0);

  CheckpointIntervalSolution sol;
  sol.mtbf = base.reliability.ClusterMtbf(base.gpus);
  sol.young = std::sqrt(2.0 * w * sol.mtbf);
  if (w < 2.0 * sol.mtbf) {
    const double ratio = w / (2.0 * sol.mtbf);
    sol.daly =
        sol.young * (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) - w;
  } else {
    sol.daly = sol.mtbf;  // Daly's regime boundary: checkpoint every MTBF
  }

  const auto goodput_at = [&](Seconds interval) {
    ResilienceOptions run = base;
    run.reliability.checkpoint_interval = interval;
    try {
      return SimulateTrainingRun(iteration_time, run).goodput;
    } catch (const CheckError&) {
      // The scan legitimately probes intervals the MTBF cannot sustain
      // (no durable progress before the restart bound trips); score them
      // as zero goodput instead of aborting the search.
      return 0.0;
    }
  };

  Seconds lo = options.min_interval > 0 ? options.min_interval
                                        : std::max(sol.daly / 16.0, w);
  Seconds hi = options.max_interval > 0 ? options.max_interval : sol.daly * 16.0;
  lo = std::max(lo, 1e-3);
  hi = std::max(hi, lo * 2.0);
  MEPIPE_CHECK_LT(lo, hi);

  // Coarse log-spaced bracketing scan: the simulated goodput curve is
  // unimodal in expectation but Monte-Carlo-stepped locally, so bracket
  // globally before polishing.
  const int n = options.coarse_points;
  std::vector<Seconds> grid(static_cast<std::size_t>(n));
  int best = 0;
  double best_goodput = -1.0;
  for (int i = 0; i < n; ++i) {
    grid[static_cast<std::size_t>(i)] =
        lo * std::pow(hi / lo, static_cast<double>(i) / (n - 1));
    const double g = goodput_at(grid[static_cast<std::size_t>(i)]);
    if (g > best_goodput) {
      best_goodput = g;
      best = i;
    }
  }
  sol.refined = grid[static_cast<std::size_t>(best)];
  sol.goodput = best_goodput;

  // Golden-section maximization between the bracket's neighbours.
  Seconds a = grid[static_cast<std::size_t>(std::max(0, best - 1))];
  Seconds b = grid[static_cast<std::size_t>(std::min(n - 1, best + 1))];
  const double inv_phi = (std::sqrt(5.0) - 1.0) / 2.0;
  Seconds x1 = b - inv_phi * (b - a);
  Seconds x2 = a + inv_phi * (b - a);
  double f1 = goodput_at(x1);
  double f2 = goodput_at(x2);
  for (int i = 0; i < options.golden_iterations; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = goodput_at(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = goodput_at(x1);
    }
    const double f_best = std::max(f1, f2);
    if (f_best > sol.goodput) {
      sol.goodput = f_best;
      sol.refined = f1 > f2 ? x1 : x2;
    }
  }
  return sol;
}

}  // namespace mepipe::core
