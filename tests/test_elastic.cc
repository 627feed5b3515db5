// Tests for the online elastic runtime (core/elastic): seed
// determinism, the hysteresis contract of live re-plans, policy
// dominance under fail-stops, and the engine-grounded shape pricing
// with schedule-invariant validation.
#include "core/elastic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "trace/chrome_trace.h"
#include "trace/fault_timeline.h"

namespace mepipe::core {
namespace {

// A failure-prone fleet whose analytic elastic run converges quickly:
// 4 DP replicas, cluster MTBF 4096 gpus / (6h per 1000) = ~5.3 min...
// scaled via target_useful_time so every policy sees a handful of
// failures under any seed.
ElasticOptions FailureProneOptions(std::uint64_t seed) {
  ElasticOptions opt;
  opt.run.gpus = 4096;
  opt.run.dp_replicas = 4;
  opt.run.seed = seed;
  opt.run.reliability.mtbf_per_1000_gpus = 24.0 * 3600.0;
  opt.run.reliability.recovery_time = 120.0;
  opt.run.reliability.checkpoint_write_cost = 20.0;
  opt.run.reliability.checkpoint_interval = 600.0;
  opt.run.target_useful_time = 40.0 * opt.run.reliability.ClusterMtbf(opt.run.gpus);
  opt.repair_time = 3600.0;
  opt.reshard_stall = 20.0;
  opt.resolve_checkpoint_interval = false;  // keep the unit tests fast
  opt.pipeline_stages = 4;
  opt.units_per_stage = 4;
  return opt;
}

void ExpectIdentical(const ElasticMetrics& a, const ElasticMetrics& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_DOUBLE_EQ(a.wall_time, b.wall_time);
  EXPECT_DOUBLE_EQ(a.useful_time, b.useful_time);
  EXPECT_DOUBLE_EQ(a.lost_time, b.lost_time);
  EXPECT_DOUBLE_EQ(a.checkpoint_time, b.checkpoint_time);
  EXPECT_DOUBLE_EQ(a.recovery_time, b.recovery_time);
  EXPECT_DOUBLE_EQ(a.repair_wait_time, b.repair_wait_time);
  EXPECT_DOUBLE_EQ(a.reshard_time, b.reshard_time);
  EXPECT_DOUBLE_EQ(a.replan_time, b.replan_time);
  EXPECT_DOUBLE_EQ(a.degraded_time, b.degraded_time);
  EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.reshards, b.reshards);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.straggler_onsets, b.straggler_onsets);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.checkpoints_aborted, b.checkpoints_aborted);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].begin, b.events[i].begin);
    EXPECT_DOUBLE_EQ(a.events[i].end, b.events[i].end);
    EXPECT_EQ(a.events[i].label, b.events[i].label);
  }
}

TEST(Elastic, SameSeedIsBitIdentical) {
  for (ElasticPolicy policy :
       {ElasticPolicy::kFrozen, ElasticPolicy::kRestart, ElasticPolicy::kElastic}) {
    ElasticOptions opt = FailureProneOptions(2026);
    opt.policy = policy;
    opt.straggler.mtbf = 2000.0;
    opt.straggler.stage = 1;
    opt.straggler.slowdown = 2.0;
    opt.straggler.busy_noise_sigma = 0.02;
    const ElasticMetrics a = SimulateElasticRun(10.0, opt);
    const ElasticMetrics b = SimulateElasticRun(10.0, opt);
    ExpectIdentical(a, b);
    EXPECT_GT(a.failures, 0) << ToString(policy);
    EXPECT_GE(a.useful_time, opt.run.target_useful_time) << ToString(policy);
  }
}

TEST(Elastic, SeedChangesTheRun) {
  ElasticOptions opt = FailureProneOptions(1);
  const ElasticMetrics a = SimulateElasticRun(10.0, opt);
  opt.run.seed = 2;
  const ElasticMetrics b = SimulateElasticRun(10.0, opt);
  EXPECT_NE(a.wall_time, b.wall_time);
}

TEST(Elastic, FailureArrivalsArePolicyInvariant) {
  // The hazard budget is spent in full-fleet-equivalent time from a
  // dedicated stream, so the three policies draw the identical failure
  // sequence: until the first failure they are the same run, and the
  // first fail-stop strikes at the same wall instant. (Total *counts*
  // legitimately differ — the run ends at a useful-time target, and a
  // policy that stalls longer spans more hazard.)
  Seconds first[3] = {-1.0, -1.0, -1.0};
  int i = 0;
  for (ElasticPolicy policy :
       {ElasticPolicy::kFrozen, ElasticPolicy::kRestart, ElasticPolicy::kElastic}) {
    ElasticOptions opt = FailureProneOptions(77);
    opt.policy = policy;
    const ElasticMetrics m = SimulateElasticRun(10.0, opt);
    EXPECT_GT(m.failures, 0) << ToString(policy);
    for (const sim::FaultSpan& e : m.events) {
      if (e.kind == sim::FaultKind::kFailStop) {
        first[i] = e.begin;
        break;
      }
    }
    ++i;
  }
  EXPECT_GT(first[0], 0.0);
  EXPECT_DOUBLE_EQ(first[0], first[1]);
  EXPECT_DOUBLE_EQ(first[1], first[2]);
}

TEST(Elastic, ElasticDominatesRestartDominatesFrozen) {
  // The tentpole's acceptance ordering on a repair-heavy fleet: elastic
  // keeps survivors training through the repair window, restart idles
  // them, frozen additionally rolls back to the durable checkpoint.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    ElasticOptions opt = FailureProneOptions(seed);
    opt.policy = ElasticPolicy::kFrozen;
    const ElasticMetrics frozen = SimulateElasticRun(10.0, opt);
    opt.policy = ElasticPolicy::kRestart;
    const ElasticMetrics restart = SimulateElasticRun(10.0, opt);
    opt.policy = ElasticPolicy::kElastic;
    const ElasticMetrics elastic = SimulateElasticRun(10.0, opt);

    EXPECT_GE(restart.goodput, frozen.goodput) << "seed " << seed;
    EXPECT_GT(elastic.goodput, restart.goodput) << "seed " << seed;
    EXPECT_GT(elastic.reshards, 0) << "seed " << seed;
    EXPECT_EQ(elastic.reshards + elastic.expansions > 0, true);
    // Elastic never stops the world while a smaller shape exists.
    EXPECT_DOUBLE_EQ(elastic.repair_wait_time, 0.0) << "seed " << seed;
    EXPECT_GT(elastic.degraded_time, 0.0) << "seed " << seed;
    // Restart/frozen idle through every repair instead.
    EXPECT_GT(restart.repair_wait_time, 0.0) << "seed " << seed;
    EXPECT_DOUBLE_EQ(restart.reshard_time, 0.0) << "seed " << seed;
    // Frozen additionally loses the uncheckpointed prefix.
    EXPECT_GE(frozen.lost_time, restart.lost_time) << "seed " << seed;
  }
}

TEST(Elastic, SingleReplicaFallsBackToSynchronousOutage) {
  // dp == 1: every failure loses the last live replica, so no peer holds
  // state newer than the durable checkpoint. Every policy degenerates to
  // the frozen rollback + wait, field for field, and must still
  // terminate.
  ElasticOptions opt = FailureProneOptions(5);
  opt.run.dp_replicas = 1;
  opt.policy = ElasticPolicy::kFrozen;
  const ElasticMetrics frozen = SimulateElasticRun(10.0, opt);
  EXPECT_GT(frozen.failures, 0);
  EXPECT_EQ(frozen.reshards, 0);
  EXPECT_GT(frozen.repair_wait_time, 0.0);
  EXPECT_GE(frozen.useful_time, opt.run.target_useful_time);
  for (ElasticPolicy policy : {ElasticPolicy::kRestart, ElasticPolicy::kElastic}) {
    opt.policy = policy;
    ElasticMetrics m = SimulateElasticRun(10.0, opt);
    EXPECT_EQ(m.policy, policy);
    m.policy = ElasticPolicy::kFrozen;
    SCOPED_TRACE(ToString(policy));
    ExpectIdentical(frozen, m);
  }
}

TEST(Elastic, AgreesWithTheTrainingRunWhereTheModelsMeet) {
  // Without repairs, stragglers or interval re-solves, on whole
  // iterations that divide the checkpoint interval, the elastic loop's
  // frozen policy is SimulateTrainingRun's full-pipeline restore and its
  // restart policy is the replica-local restore: the same failure clock,
  // the same checkpoint and retry rules. A 400 s write cost makes
  // failures abort writes. iterations_completed is not compared: the
  // elastic loop counts replays too.
  int aborted_cases = 0;
  for (const Seconds write_cost : {20.0, 400.0}) {
    for (const int dp : {2, 4, 8}) {
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        ElasticOptions opt = FailureProneOptions(seed);
        opt.run.dp_replicas = dp;
        opt.run.reliability.checkpoint_write_cost = write_cost;
        opt.run.target_useful_time = 200'000.0;
        opt.repair_time = 0.0;
        for (const auto& [policy, scope] :
             {std::pair{ElasticPolicy::kFrozen, sim::RestartScope::kFullPipeline},
              std::pair{ElasticPolicy::kRestart, sim::RestartScope::kDpReplicaLocal}}) {
          SCOPED_TRACE(testing::Message() << ToString(policy) << " write " << write_cost
                                          << " dp " << dp << " seed " << seed);
          opt.policy = policy;
          opt.run.restart_scope = scope;
          const ElasticMetrics e = SimulateElasticRun(10.0, opt);
          const ResilienceMetrics r = SimulateTrainingRun(10.0, opt.run);
          EXPECT_EQ(e.failures, r.restarts);
          EXPECT_EQ(e.checkpoints_written, r.checkpoints_written);
          EXPECT_EQ(e.checkpoints_aborted, r.checkpoints_aborted);
          const auto near = [](Seconds a, Seconds b) {
            return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
          };
          EXPECT_PRED2(near, e.wall_time, r.wall_time);
          EXPECT_PRED2(near, e.useful_time, r.useful_time);
          EXPECT_PRED2(near, e.lost_time, r.lost_time);
          EXPECT_PRED2(near, e.checkpoint_time, r.checkpoint_time);
          EXPECT_PRED2(near, e.recovery_time, r.recovery_time);
          aborted_cases += r.checkpoints_aborted > 0 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(aborted_cases, 100);
}

TEST(Elastic, TransientStragglerNeverTriggersAReplan) {
  // The hysteresis property: a straggler that lives inside a single
  // detection window cannot produce two consecutive deviant windows, so
  // the run must finish with zero re-plans no matter how many transient
  // onsets occur.
  ElasticOptions opt = FailureProneOptions(42);
  opt.run.reliability.mtbf_per_1000_gpus = 1e12;  // isolate the straggler path
  opt.run.target_useful_time = 2000.0;            // 200 iterations
  opt.straggler.mtbf = 300.0;
  opt.straggler.stage = 1;
  opt.straggler.slowdown = 2.0;
  opt.straggler.duration = 10.0;  // one iteration out of a 4-iteration window
  opt.detector.window = 4;
  opt.detector.min_observations = 2;
  // One straggled iteration dilutes to 1 + (2-1)/4 = 1.25 < 1.3.
  opt.detector.trigger_threshold = 1.3;
  opt.detector.hysteresis_windows = 2;
  const ElasticMetrics m = SimulateElasticRun(10.0, opt);
  EXPECT_GT(m.straggler_onsets, 1);
  EXPECT_EQ(m.replans, 0);
  EXPECT_DOUBLE_EQ(m.replan_time, 0.0);
}

TEST(Elastic, PersistentStragglerTriggersExactlyOneReplan) {
  // ... while a persistent straggler MUST trigger — exactly once: after
  // the re-plan the adopted profile matches the hardware, the detector
  // re-arms against the new plan, and nothing deviates again.
  ElasticOptions opt = FailureProneOptions(42);
  opt.run.reliability.mtbf_per_1000_gpus = 1e12;
  opt.run.target_useful_time = 3000.0;
  opt.straggler.mtbf = 200.0;   // onset early in the run
  opt.straggler.stage = 1;
  opt.straggler.slowdown = 2.0;
  opt.straggler.duration = 0.0;  // persists to the end of the run
  opt.detector.window = 4;
  opt.detector.min_observations = 2;
  opt.detector.trigger_threshold = 1.3;
  opt.detector.hysteresis_windows = 2;
  const ElasticMetrics m = SimulateElasticRun(10.0, opt);
  EXPECT_EQ(m.straggler_onsets, 1);
  EXPECT_EQ(m.replans, 1);
  EXPECT_DOUBLE_EQ(m.replan_time, opt.replan_stall);
  // The re-plan pays off: bottleneck 5/4 instead of the raw 2x dilation
  // on most iterations, so goodput beats the no-detector run.
  ElasticOptions undetected = opt;
  undetected.straggler.mtbf = 0;  // no straggler at all
  ElasticOptions frozen_plan = opt;
  frozen_plan.detector.trigger_threshold = 100.0;  // detector never fires
  const ElasticMetrics no_replan = SimulateElasticRun(10.0, frozen_plan);
  EXPECT_EQ(no_replan.replans, 0);
  EXPECT_GT(m.goodput, no_replan.goodput);
}

TEST(Elastic, ClearedStragglerTriggersTheSymmetricRevert) {
  // A straggler that clears after the re-plan reads as deviation in the
  // opposite direction (the mitigated plan over-provisions the now-fast
  // stage), so the loop re-plans back: at least two re-plans total.
  ElasticOptions opt = FailureProneOptions(42);
  opt.run.reliability.mtbf_per_1000_gpus = 1e12;
  opt.run.target_useful_time = 4000.0;
  opt.straggler.mtbf = 20000.0;  // effectively: one onset, then none
  opt.straggler.stage = 1;
  opt.straggler.slowdown = 2.0;
  opt.straggler.duration = 1200.0;  // long enough to trigger, then clears
  opt.detector.window = 4;
  opt.detector.min_observations = 2;
  opt.detector.trigger_threshold = 1.3;
  opt.detector.hysteresis_windows = 2;
  ElasticMetrics m = SimulateElasticRun(10.0, opt);
  if (m.straggler_onsets == 0) {
    // The deterministic first onset landed past the run for this seed;
    // pick the fallback seed that lands it inside (both are pinned).
    opt.run.seed = 43;
    m = SimulateElasticRun(10.0, opt);
  }
  ASSERT_GE(m.straggler_onsets, 1);
  EXPECT_GE(m.replans, 2);  // adopt + revert
  int replan_events = 0;
  for (const sim::FaultSpan& e : m.events) {
    if (e.kind == sim::FaultKind::kReplan) {
      ++replan_events;
    }
  }
  EXPECT_EQ(replan_events, m.replans);
}

TEST(Elastic, EventsExportThroughTheTraceLayer) {
  ElasticOptions opt = FailureProneOptions(3);
  const ElasticMetrics m = SimulateElasticRun(10.0, opt);
  ASSERT_FALSE(m.events.empty());
  const std::string csv = trace::FaultTimelineCsv(m.events);
  EXPECT_NE(csv.find("fail-stop"), std::string::npos);
  EXPECT_NE(csv.find("reshard"), std::string::npos);
  EXPECT_NE(csv.find("repair"), std::string::npos);
  const std::string json = trace::ToChromeTraceJson(m.events);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  // Events are begin-sorted — the exporters' documented precondition.
  for (std::size_t i = 1; i < m.events.size(); ++i) {
    EXPECT_LE(m.events[i - 1].begin, m.events[i].begin + 1e-9);
  }
}

TEST(Elastic, ResolvesTheIntervalPerSurvivingShape) {
  ElasticOptions opt = FailureProneOptions(7);
  opt.resolve_checkpoint_interval = true;
  opt.interval_solve_mtbfs = 20.0;  // cheap solver runs
  const ElasticMetrics m = SimulateElasticRun(10.0, opt);
  ASSERT_EQ(m.checkpoint_interval_by_survivors.size(), 4u);
  // The full fleet is always visited; every visited shape got a
  // positive solver-chosen interval.
  EXPECT_GT(m.checkpoint_interval_by_survivors[3], 0.0);
  for (int s = 0; s < 4; ++s) {
    if (m.checkpoint_interval_by_survivors[s] > 0.0 && s < 3) {
      // A smaller fleet fails less often; its interval is no shorter.
      EXPECT_GE(m.checkpoint_interval_by_survivors[s] * 1.5,
                m.checkpoint_interval_by_survivors[3]);
    }
  }
}

TEST(Elastic, ValidatesOptions) {
  ElasticOptions opt = FailureProneOptions(1);
  opt.repair_time = -1.0;
  EXPECT_THROW(SimulateElasticRun(10.0, opt), CheckError);
  opt = FailureProneOptions(1);
  opt.straggler.slowdown = 0.5;
  EXPECT_THROW(SimulateElasticRun(10.0, opt), CheckError);
  opt = FailureProneOptions(1);
  opt.straggler.stage = 9;  // outside the 4-stage pipeline
  EXPECT_THROW(SimulateElasticRun(10.0, opt), CheckError);
  opt = FailureProneOptions(1);
  opt.run.dp_replicas = 0;  // the satellite contract, through elastic
  EXPECT_THROW(SimulateElasticRun(10.0, opt), CheckError);
  EXPECT_THROW(SimulateElasticRun(0.0, FailureProneOptions(1)), CheckError);
  EXPECT_STREQ(ToString(ElasticPolicy::kFrozen), "frozen");
  EXPECT_STREQ(ToString(ElasticPolicy::kRestart), "restart");
  EXPECT_STREQ(ToString(ElasticPolicy::kElastic), "elastic");
}

TEST(Elastic, PricesEveryShapeOnTheEngine) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.dp = 8;
  strategy.spp = 8;  // slice-level scheduling: kDapple OOMs on 24 GB here

  ElasticOptions opt = FailureProneOptions(1);
  opt.run.dp_replicas = 8;
  const ElasticPricing pricing = PriceElasticShapes(config, strategy, cluster, 64, opt);

  EXPECT_GT(pricing.clean_iteration_time, 0.0);
  ASSERT_EQ(pricing.shapes.size(), 8u);
  Seconds prev = 0.0;
  for (int s = 8; s >= 2; --s) {
    const ElasticShape& shape = pricing.shapes[s - 1];
    ASSERT_TRUE(shape.feasible) << "survivors " << s << ": " << shape.note;
    // Fewer survivors process more micro-batches each: per-iteration
    // wall grows monotonically as the ring shrinks.
    EXPECT_GE(shape.iteration_time, prev) << "survivors " << s;
    prev = shape.iteration_time;
    EXPECT_GE(shape.useful_fraction, 1.0 - 1e-9);
    EXPECT_GT(shape.reshard_stall, 0.0);
    // The acceptance criterion: every shape's schedule passes the
    // sched/validate invariants under its activation budget.
    EXPECT_EQ(shape.invariant_violations, 0) << "survivors " << s;
  }
  // The memory cliff is real: a lone survivor holds the *whole* ZeRO-1
  // optimizer state, and 13B unsharded does not fit a 24 GB card. The
  // pricer marks the shape infeasible (the run falls back to a
  // restart-style outage there) instead of pretending it runs.
  EXPECT_FALSE(pricing.shapes[0].feasible);
  EXPECT_NE(pricing.shapes[0].note.find("memory"), std::string::npos);
  EXPECT_EQ(pricing.validated_schedules, 7);
  EXPECT_DOUBLE_EQ(pricing.shapes[7].iteration_time, pricing.clean_iteration_time);
  ASSERT_EQ(pricing.clean_stage_busy.size(), 8u);
  // No straggler injected: the mitigation path was not priced.
  EXPECT_TRUE(pricing.straggled_stage_busy.empty());
  EXPECT_TRUE(pricing.mitigated_stage_busy.empty());
  // The run reads the measurements only under the strategy's pipeline
  // shape: FailureProneOptions models 4 stages, the strategy has 8.
  EXPECT_THROW(SimulateElasticRun(pricing.clean_iteration_time, opt, &pricing), CheckError);
  opt.pipeline_stages = 8;
  const ElasticMetrics m = SimulateElasticRun(pricing.clean_iteration_time, opt, &pricing);
  EXPECT_GE(m.useful_time, opt.run.target_useful_time);
  opt.run.dp_replicas = 4;  // 8 measured shapes
  EXPECT_THROW(SimulateElasticRun(pricing.clean_iteration_time, opt, &pricing), CheckError);
}

TEST(Elastic, EngineGroundedRunBeatsRestartToo) {
  // End-to-end: measured shape times instead of the analytic dp/s
  // scaling, same dominance.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.dp = 8;
  strategy.spp = 8;

  ElasticOptions opt = FailureProneOptions(21);
  opt.run.dp_replicas = 8;
  opt.run.target_useful_time = 20.0 * opt.run.reliability.ClusterMtbf(opt.run.gpus);

  opt.policy = ElasticPolicy::kRestart;
  const ElasticMetrics restart =
      SimulateElasticRun(config, strategy, cluster, 64, opt);
  opt.policy = ElasticPolicy::kElastic;
  const ElasticMetrics elastic =
      SimulateElasticRun(config, strategy, cluster, 64, opt);
  EXPECT_GT(elastic.goodput, restart.goodput);
  EXPECT_GT(elastic.reshards, 0);
}

TEST(Elastic, SurrogateTriageOffKeepsTheBaseStrategyOnEveryShape) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.dp = 8;
  strategy.spp = 8;

  ElasticOptions opt = FailureProneOptions(1);
  opt.run.dp_replicas = 8;
  const ElasticPricing pricing = PriceElasticShapes(config, strategy, cluster, 64, opt);
  for (const ElasticShape& shape : pricing.shapes) {
    if (!shape.feasible) {
      continue;
    }
    EXPECT_EQ(shape.surrogate_variants, 0) << "survivors " << shape.survivors;
    EXPECT_EQ(shape.strategy.spp, strategy.spp) << "survivors " << shape.survivors;
    EXPECT_EQ(shape.strategy.vp, strategy.vp) << "survivors " << shape.survivors;
    EXPECT_EQ(shape.strategy.dp, shape.survivors);
  }
}

TEST(Elastic, SurrogateTriageSearchesPartitioningsPerShape) {
  // With slice candidates, every degraded shape re-plans its SPP split:
  // the surrogate prices the variants, the engine runs only the pick,
  // and the priced run can never be slower than the base partitioning
  // on the shapes where it re-planned.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.dp = 8;
  strategy.spp = 8;

  ElasticOptions base_opt = FailureProneOptions(1);
  base_opt.run.dp_replicas = 8;
  const ElasticPricing base = PriceElasticShapes(config, strategy, cluster, 64, base_opt);

  SurrogateCache cache;
  ElasticOptions opt = FailureProneOptions(1);
  opt.run.dp_replicas = 8;
  opt.shape_slice_candidates = {1, 2, 4, 8, 16};
  opt.surrogate_cache = &cache;
  const ElasticPricing triaged = PriceElasticShapes(config, strategy, cluster, 64, opt);

  ASSERT_EQ(triaged.shapes.size(), base.shapes.size());
  for (std::size_t i = 0; i < triaged.shapes.size(); ++i) {
    const ElasticShape& shape = triaged.shapes[i];
    if (!shape.feasible) {
      continue;
    }
    EXPECT_GT(shape.surrogate_variants, 1) << "survivors " << shape.survivors;
    EXPECT_EQ(shape.strategy.dp, shape.survivors);
    EXPECT_EQ(shape.strategy.pp, strategy.pp);  // GPU footprint never changes
    ASSERT_TRUE(base.shapes[i].feasible);
    EXPECT_LE(shape.iteration_time, base.shapes[i].iteration_time + 1e-9)
        << "survivors " << shape.survivors << " re-planned to spp=" << shape.strategy.spp
        << " but runs slower than the base split";
    EXPECT_EQ(shape.invariant_violations, 0) << "survivors " << shape.survivors;
  }
  EXPECT_GT(cache.stats().misses, 0);

  // Determinism: the same triage lands on the same picks and times.
  ElasticOptions again = FailureProneOptions(1);
  again.run.dp_replicas = 8;
  again.shape_slice_candidates = {1, 2, 4, 8, 16};
  again.surrogate_cache = &cache;
  const ElasticPricing repeat = PriceElasticShapes(config, strategy, cluster, 64, again);
  for (std::size_t i = 0; i < triaged.shapes.size(); ++i) {
    EXPECT_EQ(repeat.shapes[i].strategy.spp, triaged.shapes[i].strategy.spp);
    EXPECT_EQ(repeat.shapes[i].iteration_time, triaged.shapes[i].iteration_time);
  }
}

}  // namespace
}  // namespace mepipe::core
