#include "core/elastic.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/format.h"
#include "common/rng.h"
#include "hw/comm_model.h"
#include "sched/schedule.h"
#include "sched/validate.h"

namespace mepipe::core {
namespace {

// Independent splitmix64 stream offsets: failures, straggler onsets, and
// observation noise never share draws, so the failure arrival sequence
// is identical across the three policies regardless of what each policy
// observes or re-plans.
constexpr std::uint64_t kStragglerStream = 0x5851f42d4c957f2dULL;
constexpr std::uint64_t kNoiseStream = 0x14057b7ef767814fULL;

// Cap on the event spans kept in ElasticMetrics::events.
constexpr std::size_t kMaxEvents = 4096;

// Lower-median normalization: anchors per-stage factors on the majority
// so a uniform fleet-wide dilation never reads as a straggler profile.
void NormalizeByMedian(std::vector<double>& values) {
  std::vector<double> sorted = values;
  const std::size_t mid = (sorted.size() - 1) / 2;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                   sorted.end());
  const double median = sorted[mid];
  for (double& v : values) {
    v = std::max(1.0, median > 0 ? v / median : v);
  }
}

}  // namespace

const char* ToString(ElasticPolicy policy) {
  switch (policy) {
    case ElasticPolicy::kFrozen: return "frozen";
    case ElasticPolicy::kRestart: return "restart";
    case ElasticPolicy::kElastic: return "elastic";
  }
  return "?";
}

void ElasticOptions::Validate() const {
  run.Validate();
  MEPIPE_CHECK_GE(repair_time, 0.0);
  MEPIPE_CHECK_GE(replan_stall, 0.0);
  MEPIPE_CHECK_GE(reshard_stall, 0.0);
  MEPIPE_CHECK_GE(straggler.mtbf, 0.0);
  MEPIPE_CHECK_GE(straggler.slowdown, 1.0) << "straggler slowdown must be >= 1";
  MEPIPE_CHECK_GE(straggler.duration, 0.0);
  MEPIPE_CHECK_GE(straggler.busy_noise_sigma, 0.0);
  MEPIPE_CHECK_GE(pipeline_stages, 1);
  MEPIPE_CHECK_GE(units_per_stage, 1);
  MEPIPE_CHECK(straggler.stage >= -1 && straggler.stage < pipeline_stages)
      << "straggler stage " << straggler.stage << " outside [-1, " << pipeline_stages << ")";
  detector.Validate();
  MEPIPE_CHECK_GT(interval_solve_mtbfs, 0.0);
  for (const int spp : shape_slice_candidates) {
    MEPIPE_CHECK_GE(spp, 1) << "shape_slice_candidates entries must be >= 1";
  }
}

ElasticMetrics SimulateElasticRun(Seconds iteration_time, const ElasticOptions& opt,
                                  const ElasticPricing* measured) {
  MEPIPE_CHECK_GT(iteration_time, 0.0);
  opt.Validate();
  const ReliabilityOptions& rel = opt.run.reliability;
  const int dp = opt.run.dp_replicas;
  const int stages = opt.pipeline_stages;
  const int units0 = opt.units_per_stage;

  // Without measurements the run reads the analytic defaults: no shapes,
  // zero canonical times, empty busy vectors.
  const ElasticPricing analytic;
  const ElasticPricing& priced = measured != nullptr ? *measured : analytic;
  if (measured != nullptr) {
    MEPIPE_CHECK_EQ(priced.shapes.size(), static_cast<std::size_t>(dp))
        << "measured shapes do not match dp_replicas";
    for (const auto* busy : {&priced.clean_stage_busy, &priced.straggled_stage_busy,
                             &priced.mitigated_stage_busy}) {
      MEPIPE_CHECK(busy->empty() || busy->size() == static_cast<std::size_t>(stages))
          << "measured busy vectors need pipeline_stages (" << stages << ") entries";
    }
  }

  const Seconds target = opt.run.target_useful_time > 0
                             ? opt.run.target_useful_time
                             : static_cast<Seconds>(opt.run.iterations) * iteration_time;
  MEPIPE_CHECK_GT(target, 0.0) << "nothing to simulate";

  FailureClock clock(rel.ClusterMtbf(opt.run.gpus), target, opt.run.seed);
  SplitMixRng rng_straggler(opt.run.seed ^ kStragglerStream);
  SplitMixRng rng_noise(opt.run.seed ^ kNoiseStream);

  ElasticMetrics m;
  m.policy = opt.policy;
  m.iteration_time = iteration_time;
  m.checkpoint_interval_by_survivors.assign(static_cast<std::size_t>(dp), 0.0);

  // ---- run state ----------------------------------------------------------
  Seconds useful = 0;      // clean-equivalent progress delivered
  Seconds ckpt_useful = 0; // progress covered by the last durable checkpoint
  Seconds since_ckpt = 0;  // running wall since the last durable checkpoint
  int survivors = dp;
  std::deque<Seconds> repairs;  // wall instants outstanding repairs complete

  // Straggler ground truth (hw) and the plan currently executing
  // (assumed profile + unit assignment).
  bool straggler_active = false;
  int straggler_stage = 0;
  Seconds straggler_began = 0;
  Seconds straggler_until = std::numeric_limits<Seconds>::infinity();
  Seconds next_onset = opt.straggler.mtbf > 0
                           ? rng_straggler.NextExponential(opt.straggler.mtbf)
                           : std::numeric_limits<Seconds>::infinity();
  std::vector<double> hw(static_cast<std::size_t>(stages), 1.0);
  std::vector<double> assumed(static_cast<std::size_t>(stages), 1.0);
  std::vector<int> units(static_cast<std::size_t>(stages), units0);
  const std::vector<int> even_units = units;

  // ---- helpers ------------------------------------------------------------
  const auto record_event = [&](sim::FaultKind kind, int stage, Seconds begin, Seconds end,
                                std::string label) {
    if (m.events.size() < kMaxEvents) {
      m.events.push_back({kind, stage, -1, -1, begin, end, std::move(label)});
    }
  };

  // Both ways of advancing the clock keep the degraded-time ledger (wall
  // spent with fewer than dp live replicas, whether idling or training);
  // `active` replicas are exposed to the hazard.
  const auto exposure = [&](int active) {
    return static_cast<double>(active) / static_cast<double>(dp);
  };
  const auto advance = [&](Seconds dt, int active) {
    const FailureClock::Step step = clock.Run(dt, exposure(active));
    if (survivors < dp) {
      m.degraded_time += step.done;
    }
    return step;
  };
  // Short barrier stalls (reshard, re-plan) are failure-atomic.
  const auto advance_through = [&](Seconds dt, int active) {
    clock.RunThrough(dt, exposure(active));
    if (survivors < dp) {
      m.degraded_time += std::max(0.0, dt);
    }
  };

  // The measured shape of s survivors, or null where the run is analytic
  // (no measurements, or a shape the engine could not run).
  const auto measured_shape = [&](int s) -> const ElasticShape* {
    if (priced.shapes.empty() || !priced.shapes[static_cast<std::size_t>(s - 1)].feasible) {
      return nullptr;
    }
    return &priced.shapes[static_cast<std::size_t>(s - 1)];
  };
  const auto shape_ok = [&](int s) {
    return s >= 1 && (priced.shapes.empty() || measured_shape(s) != nullptr);
  };
  const auto shape_time = [&](int s) -> Seconds {
    if (const ElasticShape* shape = measured_shape(s)) {
      return shape->iteration_time;
    }
    return iteration_time * static_cast<double>(dp) / static_cast<double>(s);
  };
  const auto useful_credit = [&](int s) -> Seconds {
    if (const ElasticShape* shape = measured_shape(s)) {
      return iteration_time * shape->useful_fraction;
    }
    return iteration_time;
  };
  const auto reshard_stall_for = [&](int s) -> Seconds {
    const ElasticShape* shape = measured_shape(s);
    return shape != nullptr && shape->reshard_stall > 0 ? shape->reshard_stall
                                                        : opt.reshard_stall;
  };

  // Checkpoint interval of a fleet shape, re-solved on first visit for
  // the surviving fleet's MTBF; memoized — the solver runs once per
  // shape, not per checkpoint.
  std::vector<Seconds> interval_memo(static_cast<std::size_t>(dp), 0.0);
  const auto interval_for = [&](int s) -> Seconds {
    Seconds& memo = interval_memo[static_cast<std::size_t>(s - 1)];
    if (memo > 0) {
      return memo;
    }
    if (!opt.resolve_checkpoint_interval) {
      memo = rel.checkpoint_interval;
    } else {
      ResilienceOptions solve = opt.run;
      solve.gpus = std::max(1, opt.run.gpus * s / dp);
      solve.dp_replicas = s;
      solve.target_useful_time = opt.interval_solve_mtbfs * rel.ClusterMtbf(solve.gpus);
      memo = OptimalCheckpointInterval(shape_time(s), solve, opt.interval_solver).refined;
    }
    m.checkpoint_interval_by_survivors[static_cast<std::size_t>(s - 1)] = memo;
    return memo;
  };

  // Iteration-time factor of the plan currently executing relative to
  // the clean even plan: engine-measured canonical states when they were
  // priced, the analytic unit bottleneck otherwise.
  // The re-planned units after the straggler is gone are never measured.
  const auto plan_factor = [&]() -> double {
    const bool even = units == even_units;
    Seconds canonical = 0;
    if (even) {
      canonical = straggler_active ? priced.straggled_iteration_time : iteration_time;
    } else if (straggler_active) {
      canonical = priced.mitigated_iteration_time;
    }
    if (canonical > 0) {
      return canonical / iteration_time;
    }
    double bottleneck = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      bottleneck = std::max(bottleneck, static_cast<double>(units[i]) * hw[i]);
    }
    return bottleneck / static_cast<double>(units0);
  };

  // Per-stage busy synthesis for the detector. `dilation` is hw (what
  // actually ran) for observations and `assumed` (what the plan
  // expected) for the estimator baseline.
  const auto synth_busy = [&](const std::vector<double>& dilation) {
    std::vector<Seconds> busy(static_cast<std::size_t>(stages));
    for (std::size_t i = 0; i < busy.size(); ++i) {
      const Seconds base = priced.clean_stage_busy.empty()
                               ? iteration_time / static_cast<double>(stages)
                               : priced.clean_stage_busy[i];
      busy[i] = base * (static_cast<double>(units[i]) / static_cast<double>(units0)) *
                dilation[i];
    }
    return busy;
  };
  const auto canonical_busy = [&](bool expected) -> const std::vector<Seconds>* {
    const bool even = units == even_units;
    // The estimator baseline expects what the plan assumed: the even
    // plan assumed no straggler, the mitigated plan assumed one.
    const bool strag = expected ? !even : straggler_active;
    if (!even && !strag) {
      return nullptr;  // re-planned units, straggler gone: never measured
    }
    const std::vector<Seconds>& canon =
        even ? (strag ? priced.straggled_stage_busy : priced.clean_stage_busy)
             : priced.mitigated_stage_busy;
    return canon.empty() ? nullptr : &canon;
  };
  const auto expected_busy = [&]() {
    const std::vector<Seconds>* canon = canonical_busy(/*expected=*/true);
    return canon ? *canon : synth_busy(assumed);
  };
  const auto observed_busy = [&]() {
    const std::vector<Seconds>* canon = canonical_busy(/*expected=*/false);
    std::vector<Seconds> busy = canon ? *canon : synth_busy(hw);
    if (opt.straggler.busy_noise_sigma > 0) {
      for (Seconds& b : busy) {
        b *= std::exp(opt.straggler.busy_noise_sigma * rng_noise.NextGaussian());
      }
    }
    return busy;
  };

  const bool detecting = opt.policy == ElasticPolicy::kElastic && opt.straggler.mtbf > 0;
  SlowdownWindowEstimator estimator;
  if (detecting) {
    estimator = SlowdownWindowEstimator(expected_busy(), opt.detector);
  }

  const auto rollback_to_checkpoint = [&]() {
    m.lost_time += useful - ckpt_useful;
    useful = ckpt_useful;
    since_ckpt = 0;
  };

  // A replica went down at the current wall instant: queue its repair.
  // Once no replica is live, none holds state newer than the durable
  // checkpoint, whatever the policy.
  const auto lose_replica = [&]() {
    --survivors;
    const Seconds wall = clock.wall();
    record_event(sim::FaultKind::kFailStop, -1, wall, wall,
                 StrFormat("replica lost (%d/%d live)", survivors, dp));
    record_event(sim::FaultKind::kRepair, -1, wall, wall + opt.repair_time,
                 StrFormat("node repair, %d outstanding", static_cast<int>(repairs.size()) + 1));
    repairs.push_back(wall + opt.repair_time);
    if (survivors == 0) {
      rollback_to_checkpoint();
    }
  };

  // Synchronous outage (frozen/restart, and the elastic fallback): every
  // replica idles until each outstanding node is repaired, then the fleet
  // pays the restore stall. Failures during the wait queue their own
  // repairs; a failure during the restore restarts it.
  const auto synchronous_outage = [&]() {
    for (;;) {
      while (!repairs.empty()) {
        const FailureClock::Step r = advance(repairs.front() - clock.wall(), survivors);
        m.repair_wait_time += r.done;
        if (r.failed) {
          lose_replica();
        } else {
          repairs.pop_front();
          ++survivors;
        }
      }
      const FailureClock::Step r = advance(rel.recovery_time, survivors);
      m.recovery_time += r.done;
      if (!r.failed) {
        return;
      }
      lose_replica();
    }
  };

  // Hardware failure at the current wall instant; `partial_lost` is the
  // clean-equivalent work of the interrupted iteration (every policy
  // loses it — survivors hold the last iteration boundary at best).
  const auto handle_failure = [&](Seconds partial_lost) {
    m.lost_time += partial_lost;
    lose_replica();
    switch (opt.policy) {
      case ElasticPolicy::kFrozen:
        // Full stop and restore of the durable checkpoint: survivors'
        // in-memory state is discarded with the run.
        rollback_to_checkpoint();
        synchronous_outage();
        break;
      case ElasticPolicy::kRestart:
        // Survivors keep their state and idle; the repaired node
        // restores from a peer during the recovery stall.
        synchronous_outage();
        break;
      case ElasticPolicy::kElastic:
        if (shape_ok(survivors)) {
          // Shrink the DP ring: survivors re-cover the departed
          // replica's ZeRO-1 shard behind a redistribution barrier,
          // then training continues degraded.
          const Seconds stall = reshard_stall_for(survivors);
          const Seconds begin = clock.wall();
          advance_through(stall, survivors);
          m.reshard_time += stall;
          ++m.reshards;
          record_event(sim::FaultKind::kReshard, -1, begin, clock.wall(),
                       StrFormat("shrink to %d replicas", survivors));
        } else {
          // No live replica, or no feasible smaller shape:
          // restart-style synchronous wait.
          synchronous_outage();
        }
        break;
    }
  };

  // Elastic re-expansion: completed repairs rejoin at the next
  // iteration boundary behind another reshard barrier (the rejoining
  // replica streamed its peer state during the repair window, so no
  // extra recovery stall is paid — DESIGN.md states the contract).
  const auto process_repairs = [&]() {
    while (!repairs.empty() && repairs.front() <= clock.wall()) {
      repairs.pop_front();
      ++survivors;
      if (opt.policy == ElasticPolicy::kElastic) {
        const Seconds stall = reshard_stall_for(survivors);
        const Seconds begin = clock.wall();
        advance_through(stall, survivors);
        m.reshard_time += stall;
        ++m.expansions;
        record_event(sim::FaultKind::kReshard, -1, begin, clock.wall(),
                     StrFormat("expand to %d replicas", survivors));
      }
    }
  };

  const auto update_straggler = [&]() {
    if (opt.straggler.mtbf <= 0) {
      return;
    }
    const Seconds wall = clock.wall();
    if (straggler_active && wall >= straggler_until) {
      straggler_active = false;
      std::fill(hw.begin(), hw.end(), 1.0);
      record_event(sim::FaultKind::kStraggler, straggler_stage, straggler_began,
                   straggler_until,
                   StrFormat("stage %d x%.2f cleared", straggler_stage,
                             opt.straggler.slowdown));
      next_onset = wall + rng_straggler.NextExponential(opt.straggler.mtbf);
    }
    if (!straggler_active && wall >= next_onset) {
      straggler_active = true;
      straggler_stage =
          opt.straggler.stage >= 0
              ? opt.straggler.stage
              : static_cast<int>(rng_straggler.NextU64() % static_cast<std::uint64_t>(stages));
      std::fill(hw.begin(), hw.end(), 1.0);
      hw[static_cast<std::size_t>(straggler_stage)] = opt.straggler.slowdown;
      straggler_began = wall;
      straggler_until = opt.straggler.duration > 0
                            ? wall + opt.straggler.duration
                            : std::numeric_limits<Seconds>::infinity();
      ++m.straggler_onsets;
    }
  };

  // Live re-plan: fold the detected deviation into the assumed profile,
  // re-partition units against it, pay the re-plan stall, and re-arm
  // the detector against the new plan's expected busy times. Both
  // adoption (a straggler appeared) and reversion (it cleared) are the
  // same move — deviation is measured against the plan currently
  // executing, in either direction.
  const auto replan = [&]() {
    const std::vector<double>& ratios = estimator.WindowRatios();
    for (std::size_t i = 0; i < assumed.size(); ++i) {
      assumed[i] *= ratios[i];
    }
    NormalizeByMedian(assumed);
    units = PartitionUnitsBySpeed(units0 * stages, assumed, 1);
    const Seconds begin = clock.wall();
    advance_through(opt.replan_stall, survivors);
    m.replan_time += opt.replan_stall;
    ++m.replans;
    StageProfile profile;
    profile.slowdown = assumed;
    record_event(sim::FaultKind::kReplan, straggler_stage, begin, clock.wall(),
                 StrFormat("replan: profile max x%.2f", profile.max_slowdown()));
    estimator.Reset(expected_busy());
  };

  // ---- the control loop ---------------------------------------------------
  while (useful + 1e-9 < target) {
    process_repairs();
    update_straggler();
    const int s = survivors;
    const Seconds tau = shape_time(s) * plan_factor();
    const Seconds credit = useful_credit(s);

    const FailureClock::Step r = advance(tau, s);
    if (r.failed) {
      // The interrupted iteration's partial work is discarded.
      const double frac = tau > 0 ? r.done / tau : 1.0;
      handle_failure(frac * credit);
      continue;
    }
    useful += credit;
    since_ckpt += tau;
    ++m.iterations_completed;

    if (detecting && estimator.Observe(observed_busy()) && estimator.PersistentDeviation()) {
      replan();
    }

    // A due checkpoint is written at the first iteration boundary where it
    // is due. A failure that aborts the write leaves the run standing at
    // that boundary, so the write is retried at once if it is still due
    // (a rollback resets since_ckpt, so it is not).
    while (useful + 1e-9 < target && since_ckpt >= interval_for(survivors)) {
      const FailureClock::Step w = advance(rel.checkpoint_write_cost, survivors);
      m.checkpoint_time += w.done;
      if (w.failed) {
        // Failure mid-write: the elapsed write time is spent but the
        // checkpoint never became durable.
        ++m.checkpoints_aborted;
        handle_failure(0.0);
      } else {
        ckpt_useful = useful;
        since_ckpt = 0;
        ++m.checkpoints_written;
      }
    }
  }

  const Seconds wall = clock.wall();
  if (straggler_active) {
    record_event(sim::FaultKind::kStraggler, straggler_stage, straggler_began, wall,
                 StrFormat("stage %d x%.2f at run end", straggler_stage,
                           opt.straggler.slowdown));
  }
  m.wall_time = wall;
  m.useful_time = useful;
  m.failures = clock.failures();
  m.degraded_fraction = wall > 0 ? m.degraded_time / wall : 0.0;
  m.goodput = wall > 0 ? useful / wall : 1.0;
  m.overhead_fraction = 1.0 - m.goodput;
  return m;
}

// ---- engine-grounded pricing ----------------------------------------------

namespace {

// Translates a shape's byte activation budget into the validator's
// forward-unit cap via the engine's measured peak (bytes per retained
// forward at the peak), then runs the full sched/validate suite.
int CountInvariantViolations(const IterationResult& result, int stages) {
  sched::InvariantOptions inv;
  if (!result.activation_budget.empty()) {
    inv.retained_cap.resize(static_cast<std::size_t>(stages));
    for (int stage = 0; stage < stages; ++stage) {
      const int peak_units = sched::PeakRetainedForwards(result.schedule, stage);
      const Bytes peak_bytes =
          result.sim.stages[static_cast<std::size_t>(stage)].peak_activation;
      const Bytes budget = result.activation_budget[static_cast<std::size_t>(stage)];
      int cap = peak_units;
      if (peak_units > 0 && peak_bytes > 0) {
        cap = static_cast<int>(static_cast<double>(budget) *
                               static_cast<double>(peak_units) /
                               static_cast<double>(peak_bytes));
      }
      inv.retained_cap[static_cast<std::size_t>(stage)] = std::max(cap, 0);
    }
  }
  return static_cast<int>(sched::CheckScheduleInvariants(result.schedule, inv)
                              .violations.size());
}

std::vector<Seconds> StageBusyOf(const sim::SimResult& sim) {
  std::vector<Seconds> busy;
  busy.reserve(sim.stages.size());
  for (const sim::StageMetrics& stage : sim.stages) {
    busy.push_back(stage.busy);
  }
  return busy;
}

// Partitioning variants a degraded shape may re-plan to: the base
// strategy first (ties keep it), then each distinct SPP re-split (slice
// methods only). CP/TP/PP never vary — they would change the replica's
// GPU footprint, and "survivors" counts replicas of the original
// footprint.
std::vector<Strategy> ShapeVariants(const Strategy& base, const ElasticOptions& options) {
  std::vector<Strategy> variants{base};
  if (!MethodUsesSlices(base.method)) {
    return variants;
  }
  for (const int spp : options.shape_slice_candidates) {
    const bool seen = std::any_of(variants.begin(), variants.end(),
                                  [&](const Strategy& v) { return v.spp == spp; });
    if (!seen) {
      Strategy variant = base;
      variant.spp = spp;
      variants.push_back(variant);
    }
  }
  return variants;
}

// `options` with the analytic partition model of `strategy`'s real shape.
ElasticOptions ShapedFor(ElasticOptions options, const model::TransformerConfig& config,
                         const Strategy& strategy) {
  options.pipeline_stages = strategy.pp;
  options.units_per_stage = std::max(
      1, static_cast<int>(config.partition_units()) / (strategy.pp * strategy.vp));
  return options;
}

}  // namespace

ElasticPricing PriceElasticShapes(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterSpec& cluster,
                                  int global_batch, const ElasticOptions& options,
                                  const IterationOptions& iteration) {
  const int dp = strategy.dp;
  MEPIPE_CHECK_GE(dp, 1);
  MEPIPE_CHECK_EQ(dp, options.run.dp_replicas)
      << "strategy.dp and options.run.dp_replicas disagree";
  MEPIPE_CHECK_GT(global_batch, 0);
  ShapedFor(options, config, strategy).Validate();

  IterationOptions iter = iteration;
  iter.keep_timeline = false;
  iter.keep_schedule = true;

  ElasticPricing pricing;
  pricing.shapes.resize(static_cast<std::size_t>(dp));

  for (int s = dp; s >= 1; --s) {
    ElasticShape& shape = pricing.shapes[static_cast<std::size_t>(s - 1)];
    shape.survivors = s;
    const int world_s = strategy.pp * s * strategy.cp * strategy.tp;
    if (world_s % cluster.gpus_per_node != 0) {
      shape.note = StrFormat("world %d does not fill whole %d-GPU nodes", world_s,
                             cluster.gpus_per_node);
      continue;
    }
    hw::ClusterSpec shrunk = cluster;
    shrunk.nodes = world_s / cluster.gpus_per_node;
    Strategy degraded = strategy;
    degraded.dp = s;
    // Structural gate on the degraded layout. Shapes built above always
    // cover the shrunk world exactly, so this only rejects layouts that
    // the engine would refuse anyway (and gives them a structured note).
    // The tp-on-consumer-tier advisory is deliberately non-fatal here:
    // the degraded run keeps whatever tp the healthy run had.
    bool structurally_invalid = false;
    for (const hw::LayoutIssue& issue :
         degraded.layout().Validate(hw::SingleTierTopology(shrunk))) {
      if (issue.code != hw::LayoutIssue::Code::kTensorParallelOnConsumerTier) {
        shape.note = issue.message;
        structurally_invalid = true;
        break;
      }
    }
    if (structurally_invalid) {
      continue;
    }
    // Survivors re-split the global batch; the ceil keeps per-replica
    // micro-batches whole and the extra samples earn proportionally
    // more clean-equivalent credit.
    const int micros = (global_batch + s - 1) / s;
    const int batch_s = micros * s;
    // Surrogate triage: analytically price the shape's partitioning
    // variants and hand only the winner to the exact engine below. The
    // base strategy is variant 0, so ties (and no candidates) keep the
    // base partitioning.
    Strategy chosen = degraded;
    const std::vector<Strategy> variants = ShapeVariants(degraded, options);
    if (variants.size() > 1) {
      SurrogateOptions surrogate;
      surrogate.iteration = iteration;
      surrogate.iteration.keep_timeline = false;
      surrogate.iteration.keep_schedule = false;
      surrogate.cache = options.surrogate_cache;
      Seconds best_time = std::numeric_limits<Seconds>::infinity();
      for (const Strategy& variant : variants) {
        try {
          const SurrogateResult priced =
              SurrogatePrice(config, variant, shrunk, batch_s, surrogate);
          if (priced.feasible && priced.iteration_time < best_time) {
            best_time = priced.iteration_time;
            chosen = variant;
          }
        } catch (const CheckError&) {
          // Structurally inapplicable variant: skip it.
        }
      }
    }
    shape.surrogate_variants =
        variants.size() > 1 ? static_cast<int>(variants.size()) : 0;
    IterationResult result = SimulateIteration(config, chosen, shrunk, batch_s, iter);
    if (!result.feasible && chosen.spp != degraded.spp) {
      // The surrogate's pick must never cost feasibility: fall back to
      // the base partitioning when the exact engine rejects it.
      chosen = degraded;
      result = SimulateIteration(config, chosen, shrunk, batch_s, iter);
    }
    shape.micros = micros;
    shape.strategy = chosen;
    shape.note = result.note;
    if (!result.feasible) {
      continue;
    }
    shape.feasible = true;
    shape.iteration_time = result.iteration_time;
    shape.useful_fraction =
        static_cast<double>(batch_s) / static_cast<double>(global_batch);
    // Reshard barrier entering this shape: all-gather of the departed
    // replica's worst ZeRO-1 shard over the surviving DP fabric.
    const hw::LinkSpec link =
        hw::SingleTierTopology(shrunk).LinkFor(hw::Dim::kData, chosen.layout());
    shape.reshard_stall = hw::CommModel::AllGather(result.checkpoint_shard, s, link);
    shape.invariant_violations = CountInvariantViolations(result, strategy.pp);
    if (shape.invariant_violations == 0) {
      ++pricing.validated_schedules;
    }
    if (s == dp) {
      pricing.clean_stage_busy = StageBusyOf(result.sim);
    }
  }

  const ElasticShape& full = pricing.shapes[static_cast<std::size_t>(dp - 1)];
  MEPIPE_CHECK(full.feasible) << "full-fleet strategy infeasible: " << full.note;
  pricing.clean_iteration_time = full.iteration_time;

  // ---- straggler plan states (only when stragglers are injected) ----------
  if (options.straggler.mtbf > 0) {
    MEPIPE_CHECK_GE(options.straggler.stage, 0)
        << "engine-grounded straggler pricing needs a fixed straggler stage";
    sim::FaultPlan plan;
    const Seconds horizon =
        full.iteration_time * options.straggler.slowdown * 10.0 + 1.0;
    plan.stragglers.push_back(
        {options.straggler.stage, 0.0, horizon, options.straggler.slowdown});

    IterationOptions straggled_iter = iter;
    straggled_iter.fault_plan = plan;
    const IterationResult straggled =
        SimulateIteration(config, strategy, cluster, global_batch, straggled_iter);
    MEPIPE_CHECK(straggled.feasible) << "straggled run infeasible: " << straggled.note;
    pricing.straggled_iteration_time = straggled.iteration_time;
    pricing.straggled_stage_busy = StageBusyOf(straggled.sim);

    IterationOptions mitigated_iter = straggled_iter;
    mitigated_iter.rebalance_stragglers = true;
    const IterationResult mitigated =
        SimulateIteration(config, strategy, cluster, global_batch, mitigated_iter);
    MEPIPE_CHECK(mitigated.feasible) << "mitigated run infeasible: " << mitigated.note;
    pricing.mitigation_adopted = mitigated.mitigation.rebalanced;
    pricing.mitigated_iteration_time = mitigated.iteration_time;
    pricing.mitigated_stage_busy = StageBusyOf(mitigated.sim);
    if (mitigated.mitigation.rebalanced &&
        CountInvariantViolations(mitigated, strategy.pp) == 0) {
      ++pricing.validated_schedules;
    }
  }

  return pricing;
}

ElasticMetrics SimulateElasticRun(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterSpec& cluster,
                                  int global_batch, ElasticOptions options,
                                  const IterationOptions& iteration) {
  options = ShapedFor(std::move(options), config, strategy);
  const ElasticPricing pricing =
      PriceElasticShapes(config, strategy, cluster, global_batch, options, iteration);
  return SimulateElasticRun(pricing.clean_iteration_time, options, &pricing);
}

}  // namespace mepipe::core
