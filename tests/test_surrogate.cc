// The surrogate pricing contract (core/surrogate): exact against the
// engine for transfer-free costs, bounded error on the paper configs,
// cache/fingerprint behavior, closed-form goodput, and the fault-aware
// lower bound's soundness.
#include "core/surrogate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "core/iteration.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "sched/baselines.h"
#include "sched/zbv.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim_result_match.h"

namespace mepipe::core {
namespace {

using sched::Schedule;
using sim::SimResult;
using sim::UniformCostModel;
using sim::WgradMode;

// Every generator family the engine runs, at shapes small enough to
// enumerate quickly but large enough to exercise warmup/steady/drain.
std::vector<std::pair<const char*, Schedule>> TransferFreeCorpus() {
  std::vector<std::pair<const char*, Schedule>> corpus;
  corpus.push_back({"gpipe", sched::GPipeSchedule(4, 6)});
  corpus.push_back({"1f1b", sched::OneFOneBSchedule(4, 8)});
  corpus.push_back({"vpp", sched::VppSchedule(4, 2, 8)});
  corpus.push_back({"terapipe", sched::TeraPipeSchedule(4, 4, 4)});
  corpus.push_back({"zb1p", sched::Zb1pSchedule(4, 8)});
  corpus.push_back({"zbv", sched::HandcraftedZbvSchedule(4, 8)});
  // A job-tagged schedule (core/cluster tags every admitted job's).
  Schedule tagged = sched::Zb1pSchedule(4, 8);
  sched::TagJob(tagged, 3);
  corpus.push_back({"zb1p job 3", std::move(tagged)});
  return corpus;
}

// The two entry points of the one list interpreter, compared bit for bit
// on every summary field they both report.
void ExpectExactMatch(const SimResult& table, const SimResult& engine, const char* label) {
  ExpectSameResult(table, engine, label);
  // The table replay records nothing per op.
  EXPECT_TRUE(table.timeline.empty()) << label;
  EXPECT_TRUE(table.memory_timeline.empty()) << label;
}

TEST(SurrogateTable, ExactForTransferFreeCostsAcrossGeneratorsAndWgradModes) {
  // The contract's "exact" half: with no transfers, the table IS the
  // engine — makespan, bubbles, and memory bit for bit.
  const UniformCostModel costs(1.0, 2.0, 0.7, /*transfer=*/0.0, /*act_bytes=*/10,
                               /*act_grad_bytes=*/3, /*wgrad_gemms=*/3);
  for (const auto& [label, schedule] : TransferFreeCorpus()) {
    for (WgradMode mode : {WgradMode::kImmediate, WgradMode::kFillWhole,
                           WgradMode::kFillGemms}) {
      sim::EngineOptions engine_options;
      engine_options.wgrad_mode = mode;
      const SimResult engine = Simulate(schedule, costs, engine_options);
      TableOptions table_options;
      table_options.wgrad_mode = mode;
      ExpectExactMatch(PriceScheduleTable(schedule, costs, table_options), engine, label);
    }
  }
}

TEST(SurrogateTable, ExactUnderActivationBudgetDrains) {
  // A budget tight enough to force DrainForBudget on every warmup
  // forward; the table must replicate the drain decisions exactly.
  const Schedule schedule = sched::Zb1pSchedule(4, 8);
  const UniformCostModel costs(1.0, 2.0, 0.7, 0.0, /*act_bytes=*/10, /*act_grad_bytes=*/4,
                               /*wgrad_gemms=*/2);
  const std::vector<Bytes> budget(4, 45);
  sim::EngineOptions engine_options;
  engine_options.activation_budget = budget;
  const SimResult engine = Simulate(schedule, costs, engine_options);
  TableOptions table_options;
  table_options.activation_budget = budget;
  ExpectExactMatch(PriceScheduleTable(schedule, costs, table_options), engine, "zb1p budgeted");
}

TEST(SurrogateTable, ExactForOverlappedDpSyncWithoutFabricSharing) {
  const Schedule schedule = sched::OneFOneBSchedule(4, 8);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, 10, 0, 1, /*dp_sync=*/1.5);
  sim::EngineOptions engine_options;
  engine_options.dp_overlap = true;
  const SimResult engine = Simulate(schedule, costs, engine_options);
  TableOptions table_options;
  table_options.dp_overlap = true;
  ExpectExactMatch(PriceScheduleTable(schedule, costs, table_options), engine, "1f1b dp overlap");
}

TEST(Surrogate, BoundedRelativeErrorOnPaperConfigs) {
  // The contract's "approximate" half, on the Table 5/6 hardware: the
  // only divergence is transfer-link serialization, so the surrogate's
  // iteration time stays within a few percent of the engine's and
  // feasibility verdicts agree.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  struct Case {
    Method method;
    int pp, spp, cp, vp;
  };
  const std::vector<Case> cases = {
      {Method::kSvpp, 8, 4, 1, 1},  {Method::kSvpp, 8, 8, 1, 2},
      {Method::kDapple, 8, 1, 1, 1}, {Method::kVpp, 8, 1, 1, 2},
      {Method::kZb1p, 8, 1, 1, 1},   {Method::kTeraPipe, 8, 1, 4, 1},
  };
  for (const Case& c : cases) {
    Strategy strategy;
    strategy.method = c.method;
    strategy.pp = c.pp;
    strategy.spp = c.spp;
    strategy.cp = c.cp;
    strategy.vp = c.vp;
    strategy.dp = 64 / (c.pp * c.cp);
    strategy.recompute = c.method == Method::kVpp;
    IterationOptions iteration;
    iteration.keep_timeline = false;
    const IterationResult exact = SimulateIteration(config, strategy, cluster, 64, iteration);
    SurrogateOptions surrogate;
    surrogate.iteration = iteration;
    const SurrogateResult priced = SurrogatePrice(config, strategy, cluster, 64, surrogate);
    ASSERT_EQ(priced.feasible, exact.feasible) << ToString(c.method) << ": " << priced.note;
    if (!exact.feasible) {
      continue;
    }
    const double rel_error =
        std::abs(priced.iteration_time - exact.iteration_time) / exact.iteration_time;
    EXPECT_LT(rel_error, 0.05) << ToString(c.method) << " surrogate " << priced.iteration_time
                               << " vs exact " << exact.iteration_time;
    EXPECT_LE(priced.iteration_time, exact.iteration_time + 1e-9)
        << ToString(c.method) << ": dropping link serialization can only shorten the run";
    EXPECT_EQ(priced.micros, exact.micros);
  }
}

TEST(Surrogate, ReportsStructuralInfeasibilityLikeTheEngine) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 7;  // 40 partition units need pp | 40
  strategy.dp = 2;
  const SurrogateResult priced = SurrogatePrice(config, strategy, cluster, 64);
  EXPECT_FALSE(priced.feasible);
  EXPECT_FALSE(priced.note.empty());
}

TEST(SurrogateCacheTest, SecondPriceIsAHitWithIdenticalResult) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 4;
  strategy.dp = 8;
  SurrogateCache cache;
  SurrogateOptions options;
  options.cache = &cache;
  const SurrogateResult first = SurrogatePrice(config, strategy, cluster, 64, options);
  const SurrogateResult second = SurrogatePrice(config, strategy, cluster, 64, options);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(first.iteration_time, second.iteration_time);
  EXPECT_EQ(first.peak_memory, second.peak_memory);
  EXPECT_EQ(first.note, second.note);
}

TEST(SurrogateCacheTest, FingerprintSeparatesCostModelChanges) {
  // Same strategy, different cluster link speed: the fingerprint must
  // differ, so the cache misses instead of serving a stale price.
  const auto config = model::Llama13B();
  auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 4;
  strategy.dp = 8;
  SurrogateCache cache;
  SurrogateOptions options;
  options.cache = &cache;
  (void)SurrogatePrice(config, strategy, cluster, 64, options);
  cluster.intra_node.bandwidth *= 2.0;
  const SurrogateResult repriced = SurrogatePrice(config, strategy, cluster, 64, options);
  EXPECT_FALSE(repriced.cache_hit);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 2u);

  IterationOptions changed;
  changed.wgrad_mode = sim::WgradMode::kFillWhole;
  EXPECT_NE(CostModelFingerprint(config, cluster, {}),
            CostModelFingerprint(config, cluster, changed));
}

TEST(SurrogateCacheTest, IntervalSolveIsMemoized) {
  SurrogateCache cache;
  ResilienceOptions res;
  res.dp_replicas = 8;
  res.reliability.checkpoint_write_cost = 12.0;
  const CheckpointIntervalSolution a = cache.IntervalSolve(2.0, res);
  const CheckpointIntervalSolution b = cache.IntervalSolve(2.0, res);
  EXPECT_EQ(cache.stats().interval_misses, 1);
  EXPECT_EQ(cache.stats().interval_hits, 1);
  EXPECT_DOUBLE_EQ(a.refined, b.refined);
  EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
  const CheckpointIntervalSolution direct = OptimalCheckpointInterval(2.0, res);
  EXPECT_DOUBLE_EQ(a.refined, direct.refined);
  EXPECT_DOUBLE_EQ(a.goodput, direct.goodput);

  res.reliability.checkpoint_write_cost = 24.0;
  (void)cache.IntervalSolve(2.0, res);
  EXPECT_EQ(cache.stats().interval_misses, 2);
}

TEST(SurrogateCacheTest, ConcurrentMixedTrafficStaysConsistent) {
  // TSan target: hammer one cache from many threads with price lookups,
  // inserts, and interval solves; every thread must read prices equal to
  // a serially computed reference.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  std::vector<Strategy> strategies;
  for (int spp : {1, 2, 4, 8}) {
    Strategy strategy;
    strategy.method = Method::kSvpp;
    strategy.pp = 8;
    strategy.spp = spp;
    strategy.dp = 8;
    strategies.push_back(strategy);
  }
  std::vector<SurrogateResult> reference;
  for (const Strategy& strategy : strategies) {
    reference.push_back(SurrogatePrice(config, strategy, cluster, 64));
  }

  SurrogateCache cache;
  ResilienceOptions res;
  res.dp_replicas = 8;
  std::atomic<int> mismatches{0};
  const auto worker = [&](int seed) {
    SurrogateOptions options;
    options.cache = &cache;
    for (int round = 0; round < 8; ++round) {
      const std::size_t i =
          static_cast<std::size_t>(seed + round) % strategies.size();
      const SurrogateResult got =
          SurrogatePrice(config, strategies[i], cluster, 64, options);
      if (got.iteration_time != reference[i].iteration_time ||
          got.peak_memory != reference[i].peak_memory) {
        mismatches.fetch_add(1);
      }
      (void)cache.IntervalSolve(1.0 + 0.5 * static_cast<double>(i), res);
      (void)cache.stats();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back(worker, t);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), strategies.size());
}

TEST(SurrogateGoodputTest, ClosedFormTracksTheRefinedSolver) {
  ResilienceOptions res;
  res.dp_replicas = 8;
  for (Seconds iteration_time : {0.5, 2.0, 8.0}) {
    const SurrogateGoodput closed = ClosedFormGoodput(iteration_time, Bytes{1} << 33, res);
    ResilienceOptions priced = res;
    priced.reliability.checkpoint_write_cost = closed.checkpoint_write_cost;
    const CheckpointIntervalSolution refined = OptimalCheckpointInterval(iteration_time, priced);
    EXPECT_GT(closed.goodput, 0.0);
    EXPECT_LE(closed.goodput, 1.0);
    EXPECT_GE(closed.effective_iteration_time, iteration_time);
    // The closed form skips the Monte-Carlo refinement but must land in
    // the same neighborhood — it only ranks, the solver prices.
    EXPECT_NEAR(closed.goodput, refined.goodput, 0.05)
        << "iteration_time=" << iteration_time;
  }
  // More write cost can never raise the closed-form goodput.
  ResilienceOptions heavy = res;
  const SurrogateGoodput cheap = ClosedFormGoodput(2.0, Bytes{1} << 30, heavy);
  const SurrogateGoodput expensive = ClosedFormGoodput(2.0, Bytes{1} << 36, heavy);
  EXPECT_GE(cheap.goodput, expensive.goodput);
  EXPECT_GT(expensive.checkpoint_write_cost, cheap.checkpoint_write_cost);
}

TEST(SurrogateLowerBoundTest, NeverExceedsTheMeasuredIterationTime) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  std::vector<Strategy> strategies;
  for (int spp : {4, 8}) {
    Strategy strategy;
    strategy.method = Method::kSvpp;
    strategy.pp = 8;
    strategy.spp = spp;
    strategy.dp = 8;
    strategies.push_back(strategy);
  }
  Strategy vpp;
  vpp.method = Method::kVpp;
  vpp.pp = 4;  // 40 partition units: pp * vp must divide 40
  vpp.vp = 2;
  vpp.dp = 16;
  vpp.recompute = true;
  strategies.push_back(vpp);

  std::vector<sim::FaultPlanRef> plans;
  plans.emplace_back();  // clean
  sim::FaultPlan straggler;
  straggler.stragglers.push_back({1, 0.0, 1e9, 2.0});
  plans.push_back(straggler);
  sim::FaultPlan windowed;
  windowed.stragglers.push_back({0, 0.0, 5.0, 3.0});
  windowed.stragglers.push_back({2, 10.0, 20.0, 1.5});
  plans.push_back(windowed);

  for (const Strategy& strategy : strategies) {
    for (std::size_t p = 0; p < plans.size(); ++p) {
      IterationOptions options;
      options.keep_timeline = false;
      options.fault_plan = plans[p];
      const auto bound = SurrogateLowerBound(config, strategy, cluster, 64, options);
      ASSERT_TRUE(bound.has_value()) << "plan " << p;
      const IterationResult exact = SimulateIteration(config, strategy, cluster, 64, options);
      ASSERT_TRUE(exact.feasible)
          << ToString(strategy.method) << " spp=" << strategy.spp << ": " << exact.note;
      EXPECT_LE(*bound, exact.iteration_time + 1e-9)
          << ToString(strategy.method) << " spp=" << strategy.spp << " plan " << p;
    }
  }
}

TEST(SurrogateLowerBoundTest, StragglerWindowsRaiseTheBound) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 4;
  strategy.dp = 8;
  IterationOptions clean;
  clean.keep_timeline = false;
  const auto clean_bound = SurrogateLowerBound(config, strategy, cluster, 64, clean);
  sim::FaultPlan plan;
  plan.stragglers.push_back({3, 0.0, 1e9, 2.0});
  IterationOptions faulted = clean;
  faulted.fault_plan = plan;
  const auto faulted_bound = SurrogateLowerBound(config, strategy, cluster, 64, faulted);
  ASSERT_TRUE(clean_bound.has_value());
  ASSERT_TRUE(faulted_bound.has_value());
  EXPECT_GT(*faulted_bound, *clean_bound);
}

}  // namespace
}  // namespace mepipe::core
