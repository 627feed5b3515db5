// Integration tests: strategy grid search (core/planner) against the
// paper's §7.2 findings.
#include "core/planner.h"

#include <gtest/gtest.h>

#include "hw/cluster.h"
#include "model/transformer.h"
#include "sim/fault.h"

namespace mepipe::core {
namespace {

TEST(Planner, FindsFeasibleStrategiesForAllMainMethods) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  for (Method m : {Method::kDapple, Method::kVpp, Method::kZb1p, Method::kSvpp}) {
    const PlannerResult result = SearchBestStrategy(m, config, cluster, 64);
    ASSERT_TRUE(result.best.has_value()) << ToString(m);
    EXPECT_TRUE(result.best->feasible);
    EXPECT_FALSE(result.evaluated.empty());
  }
}

TEST(Planner, MepipeWinsOnLlama13B) {
  // The headline: MEPipe beats every baseline at every global batch size
  // (Figure 8).
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  for (int gbs : {32, 64, 128}) {
    const auto mepipe = SearchBestStrategy(Method::kSvpp, config, cluster, gbs);
    ASSERT_TRUE(mepipe.best.has_value());
    for (Method m : {Method::kDapple, Method::kVpp, Method::kZb1p, Method::kZbv}) {
      const auto other = SearchBestStrategy(m, config, cluster, gbs);
      if (other.best) {
        EXPECT_LT(mepipe.best->iteration_time, other.best->iteration_time)
            << ToString(m) << " gbs=" << gbs;
      }
    }
  }
}

TEST(Planner, MepipePicksPaperConfigAt128) {
  // Table 5: MEPipe (8, 4, 1) at GBS=128 — pp=8, slice-level spp, vp=1.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto result = SearchBestStrategy(Method::kSvpp, config, cluster, 128);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->strategy.pp, 8);
  EXPECT_EQ(result.best->strategy.vp, 1);
  EXPECT_GE(result.best->strategy.spp, 4);
  EXPECT_FALSE(result.best->strategy.recompute);
}

TEST(Planner, VppNeedsRecomputationOn13B) {
  // §7.2: VPP's extra warmup forwards overflow 24 GB without recompute.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto result = SearchBestStrategy(Method::kVpp, config, cluster, 64);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->strategy.recompute);
  EXPECT_EQ(result.best->strategy.pp, 4);  // 40 units / (p·v=8) — max p is 4
}

TEST(Planner, RespectsMinDp) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.min_dp = 2;
  const auto result = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  for (const auto& e : result.evaluated) {
    EXPECT_GE(e.strategy.dp, 2);
  }
}

TEST(Planner, EvaluatedTimelinesAreDropped) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto result = SearchBestStrategy(Method::kSvpp, config, cluster, 32);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_FALSE(result.best->sim.timeline.empty());  // winner re-simulated
  for (const auto& e : result.evaluated) {
    EXPECT_TRUE(e.sim.timeline.empty());
  }
}

TEST(Planner, SpeedupGrowsAsBatchShrinks) {
  // Figure 8's trend: 1.36× at GBS=128 → 1.86× at GBS=32 (scaled
  // clusters have fewer micro-batches, so bubbles dominate and
  // slice-level scheduling pays off more).
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  auto speedup = [&](int gbs) {
    const auto mepipe = SearchBestStrategy(Method::kSvpp, config, cluster, gbs);
    double best_other = 1e30;
    for (Method m : {Method::kDapple, Method::kZb1p}) {
      const auto other = SearchBestStrategy(m, config, cluster, gbs);
      if (other.best) {
        best_other = std::min(best_other, other.best->iteration_time);
      }
    }
    return best_other / mepipe.best->iteration_time;
  };
  const double s32 = speedup(32);
  const double s128 = speedup(128);
  EXPECT_GT(s32, 1.0);
  EXPECT_GT(s128, 1.0);
  EXPECT_GT(s32, s128);
}

TEST(Planner, PrunedSearchFindsSameWinnerWithFewerSimulations) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions full;
  PlannerOptions pruned;
  pruned.prune = true;
  for (Method m : {Method::kDapple, Method::kSvpp}) {
    const auto a = SearchBestStrategy(m, config, cluster, 64, full);
    const auto b = SearchBestStrategy(m, config, cluster, 64, pruned);
    ASSERT_TRUE(a.best.has_value());
    ASSERT_TRUE(b.best.has_value());
    EXPECT_EQ(a.best->strategy.ToString(), b.best->strategy.ToString()) << ToString(m);
    EXPECT_NEAR(a.best->iteration_time, b.best->iteration_time, 1e-9);
    EXPECT_GT(b.pruned, 0) << ToString(m);
    EXPECT_LT(b.simulated, a.simulated) << ToString(m);
    EXPECT_EQ(a.evaluated.size(), b.evaluated.size());
  }
}

TEST(Planner, DollarObjectiveRanksByIterationTimeOnAClusterSpec) {
  // A ClusterSpec carries no rental rate: every candidate rents the same
  // fleet, so kDollarCost must reduce to kIterationTime instead of tying
  // every candidate at $0.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions by_time;
  by_time.pp_candidates = {2, 4, 8};
  by_time.slice_candidates = {1, 2, 4};
  PlannerOptions by_dollars = by_time;
  by_dollars.objective = PlannerObjective::kDollarCost;
  for (const bool two_phase : {false, true}) {
    by_time.two_phase = two_phase;
    by_dollars.two_phase = two_phase;
    const auto a = SearchBestStrategy(Method::kSvpp, config, cluster, 64, by_time);
    const auto b = SearchBestStrategy(Method::kSvpp, config, cluster, 64, by_dollars);
    ASSERT_TRUE(a.best.has_value());
    ASSERT_TRUE(b.best.has_value());
    EXPECT_EQ(a.best->strategy.ToString(), b.best->strategy.ToString());
    EXPECT_EQ(a.best->iteration_time, b.best->iteration_time);
    EXPECT_EQ(a.simulated, b.simulated);
  }
}

TEST(Planner, CandidateErrorsAreRecordedNotThrown) {
  // A straggler on stage 5 is a valid fault plan for pp=8 and an invalid
  // one for pp=4. The exact phase records the pp=4 candidates as
  // infeasible, the fault plan's error as their note, and still returns
  // the pp=8 winner.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {4, 8};
  options.slice_candidates = {1, 2};
  sim::FaultPlan faults;
  faults.stragglers.push_back({5, 0.0, 1e9, 2.0});
  options.fault_plan = faults;
  const auto result = SearchBestStrategy(Method::kDapple, config, cluster, 64, options);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->strategy.pp, 8);
  int rejected = 0;
  for (const IterationResult& evaluated : result.evaluated) {
    if (evaluated.strategy.pp == 4) {
      EXPECT_FALSE(evaluated.feasible);
      EXPECT_NE(evaluated.note.find("straggler stage 5"), std::string::npos) << evaluated.note;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(result.simulated, static_cast<int>(result.evaluated.size()));
}

TEST(Planner, A100ClusterFindsNvlinkTensorParallelConfig) {
  // The Table 9 reference side: on the A100 cluster (NVLink), opening up
  // tensor parallelism yields a high-utilization Megatron-style config.
  const auto config = model::Llama13B();
  const auto cluster = hw::A100Cluster();
  PlannerOptions options;
  options.tp_candidates = {1, 2, 4, 8};
  options.min_dp = 1;
  const auto result = SearchBestStrategy(Method::kVpp, config, cluster, 128, options);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_GT(result.best->mfu, 0.5);
  EXPECT_LT(result.best->mfu, 0.95);
  EXPECT_LE(ToMilliseconds(result.best->iteration_time), 8000);
}

TEST(Planner, DeterministicAcrossRuns) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto a = SearchBestStrategy(Method::kSvpp, config, cluster, 64);
  const auto b = SearchBestStrategy(Method::kSvpp, config, cluster, 64);
  ASSERT_TRUE(a.best && b.best);
  EXPECT_DOUBLE_EQ(a.best->iteration_time, b.best->iteration_time);
  EXPECT_EQ(a.best->strategy.ToString(), b.best->strategy.ToString());
}

TEST(Planner, SearchMethodsCoversAll) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto results = SearchMethods({Method::kDapple, Method::kSvpp}, config, cluster, 64);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].best.has_value());
  EXPECT_TRUE(results[1].best.has_value());
}

TEST(Planner, PruningNeverChangesTheWinnerOnASmallGrid) {
  // Regression guard on the pruning lower bound: across every method on
  // a deliberately small grid, the pruned search must land on the same
  // winner at the same time as the exhaustive one.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions full;
  full.pp_candidates = {2, 4, 8};
  full.slice_candidates = {1, 2, 4};
  full.vp_candidates = {1, 2};
  PlannerOptions pruned = full;
  pruned.prune = true;
  for (Method m : {Method::kDapple, Method::kGPipe, Method::kVpp, Method::kZb1p,
                   Method::kTeraPipe, Method::kSvpp}) {
    const auto a = SearchBestStrategy(m, config, cluster, 32, full);
    const auto b = SearchBestStrategy(m, config, cluster, 32, pruned);
    ASSERT_EQ(a.best.has_value(), b.best.has_value()) << ToString(m);
    if (!a.best) {
      continue;
    }
    EXPECT_EQ(a.best->strategy.ToString(), b.best->strategy.ToString()) << ToString(m);
    EXPECT_NEAR(a.best->iteration_time, b.best->iteration_time, 1e-9) << ToString(m);
    EXPECT_LE(b.simulated, a.simulated) << ToString(m);
    EXPECT_EQ(a.evaluated.size(), b.evaluated.size()) << ToString(m);
  }
}

TEST(Planner, FaultAwarePruningKeepsTheFaultedWinner) {
  // The fault-aware lower bound (core::SurrogateLowerBound) caps each
  // stage's rate over the plan's straggler windows, so pruning stays on
  // under a fault plan — same faulted winner, fewer simulations. Only
  // search_rebalanced disables it (work moves across stages).
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {8};  // 13B's 40 partition units need pp | 40
  options.slice_candidates = {1, 2, 4, 8};
  options.vp_candidates = {1};

  const auto clean = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(clean.best.has_value());

  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  options.fault_plan = faults;
  const auto exhaustive = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  options.prune = true;
  const auto pruned = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(exhaustive.best.has_value());
  ASSERT_TRUE(pruned.best.has_value());
  EXPECT_EQ(exhaustive.best->strategy.ToString(), pruned.best->strategy.ToString());
  EXPECT_NEAR(exhaustive.best->iteration_time, pruned.best->iteration_time, 1e-9);
  EXPECT_GT(pruned.pruned, 0);  // the fault-aware bound actually fired
  EXPECT_LT(pruned.simulated, exhaustive.simulated);
  EXPECT_EQ(exhaustive.evaluated.size(), pruned.evaluated.size());
  EXPECT_GT(pruned.best->iteration_time, clean.best->iteration_time);

  // Rebalanced search re-partitions stages, which invalidates any
  // per-stage bound — pruning must stand down there.
  options.search_rebalanced = true;
  const auto rebalanced = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  EXPECT_EQ(rebalanced.pruned, 0);
}

TEST(Planner, JointPruningKeepsTheWinnerUnderFaultsAndGoodput) {
  // Satellite of the surrogate PR: the joint straggler × goodput search
  // can now prune. Same winner and score as the exhaustive joint search,
  // with at least one candidate bounded out.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions full;
  full.pp_candidates = {8};
  full.slice_candidates = {1, 2, 4, 8};
  full.vp_candidates = {1};
  full.objective = PlannerObjective::kGoodput;
  full.resilience.seed = 7;
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  full.fault_plan = faults;
  PlannerOptions pruned = full;
  pruned.prune = true;
  const auto a = SearchBestStrategy(Method::kSvpp, config, cluster, 64, full);
  const auto b = SearchBestStrategy(Method::kSvpp, config, cluster, 64, pruned);
  ASSERT_TRUE(a.best.has_value());
  ASSERT_TRUE(b.best.has_value());
  EXPECT_EQ(a.best->strategy.ToString(), b.best->strategy.ToString());
  EXPECT_NEAR(a.best->goodput.effective_iteration_time,
              b.best->goodput.effective_iteration_time, 1e-9);
  EXPECT_GT(b.pruned, 0);
  EXPECT_EQ(a.evaluated.size(), b.evaluated.size());
}

TEST(Planner, TwoPhaseSearchMatchesExhaustiveForEveryMethodAndBothObjectives) {
  // The two-phase driver's acceptance bar: on the small grid every
  // method's surrogate top-k contains the true winner, for both ranking
  // objectives.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions full;
  full.pp_candidates = {2, 4, 8};
  full.slice_candidates = {1, 2, 4};
  full.vp_candidates = {1, 2};
  full.resilience.seed = 7;
  PlannerOptions two_phase = full;
  two_phase.two_phase = true;
  two_phase.surrogate_top_k = 4;
  two_phase.threads = 2;
  for (PlannerObjective objective :
       {PlannerObjective::kIterationTime, PlannerObjective::kGoodput}) {
    full.objective = objective;
    two_phase.objective = objective;
    for (Method m : {Method::kDapple, Method::kGPipe, Method::kVpp, Method::kZb1p,
                     Method::kTeraPipe, Method::kSvpp}) {
      const auto a = SearchBestStrategy(m, config, cluster, 32, full);
      const auto b = SearchBestStrategy(m, config, cluster, 32, two_phase);
      ASSERT_EQ(a.best.has_value(), b.best.has_value()) << ToString(m);
      if (!a.best) {
        continue;
      }
      EXPECT_EQ(a.best->strategy.ToString(), b.best->strategy.ToString()) << ToString(m);
      EXPECT_NEAR(a.best->iteration_time, b.best->iteration_time, 1e-9) << ToString(m);
      EXPECT_GT(b.surrogate_priced, 0) << ToString(m);
      EXPECT_LT(b.simulated, a.simulated) << ToString(m);
      EXPECT_EQ(a.evaluated.size(), b.evaluated.size()) << ToString(m);
    }
  }
}

TEST(Planner, TwoPhaseWinnerIsBitIdenticalAcrossThreadCounts) {
  // Determinism contract: candidates are ranked by (score, grid order)
  // and the exact phase runs in grid order, so the thread count can
  // never change the winner — bit for bit.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions base;
  base.pp_candidates = {2, 4, 8};
  base.slice_candidates = {1, 2, 4, 8};
  base.vp_candidates = {1, 2};
  base.two_phase = true;
  base.surrogate_top_k = 4;
  base.threads = 1;
  const auto serial = SearchBestStrategy(Method::kSvpp, config, cluster, 64, base);
  ASSERT_TRUE(serial.best.has_value());
  for (int threads : {2, 8}) {
    PlannerOptions options = base;
    options.threads = threads;
    const auto parallel = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
    ASSERT_TRUE(parallel.best.has_value()) << threads << " threads";
    EXPECT_EQ(serial.best->strategy.ToString(), parallel.best->strategy.ToString())
        << threads << " threads";
    EXPECT_EQ(serial.best->iteration_time, parallel.best->iteration_time)
        << threads << " threads";
    EXPECT_EQ(serial.surrogate_priced, parallel.surrogate_priced);
    EXPECT_EQ(serial.simulated, parallel.simulated);
  }
}

TEST(Planner, TwoPhaseFallsBackToExhaustiveUnderAFaultPlan) {
  // The surrogate prices clean runs only; a faulted search must ignore
  // two_phase and evaluate the whole grid with the engine.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {8};
  options.slice_candidates = {1, 8};
  options.vp_candidates = {1};
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  options.fault_plan = faults;
  const auto exhaustive = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  options.two_phase = true;
  const auto fallback = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(exhaustive.best.has_value());
  ASSERT_TRUE(fallback.best.has_value());
  EXPECT_EQ(fallback.surrogate_priced, 0);
  EXPECT_EQ(exhaustive.best->strategy.ToString(), fallback.best->strategy.ToString());
  EXPECT_EQ(exhaustive.simulated, fallback.simulated);
}

TEST(Planner, TwoPhaseServesRepeatSearchesFromTheCache) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  SurrogateCache cache;
  PlannerOptions options;
  options.pp_candidates = {2, 4, 8};
  options.slice_candidates = {1, 2, 4};
  options.vp_candidates = {1};
  options.two_phase = true;
  options.cache = &cache;
  const auto first = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  const auto second = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(first.best.has_value());
  ASSERT_TRUE(second.best.has_value());
  EXPECT_EQ(first.cache_hits, 0);
  EXPECT_EQ(second.cache_hits, second.surrogate_priced);  // every price served
  EXPECT_EQ(first.best->strategy.ToString(), second.best->strategy.ToString());
  EXPECT_EQ(first.best->iteration_time, second.best->iteration_time);
}

TEST(Planner, SearchRebalancedVariantsBeatOrMatchTheFaultedSearch) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {8};  // 13B's 40 partition units need pp | 40
  options.slice_candidates = {1, 8};
  options.vp_candidates = {1};
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  options.fault_plan = faults;

  const auto plain = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  options.search_rebalanced = true;
  const auto rebalanced = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(plain.best.has_value());
  ASSERT_TRUE(rebalanced.best.has_value());
  EXPECT_GT(rebalanced.simulated, plain.simulated);  // extra mitigated evals
  EXPECT_LE(rebalanced.best->iteration_time, plain.best->iteration_time + 1e-9);
}

TEST(Planner, GoodputObjectivePricesEveryFeasibleCandidate) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {8};
  options.slice_candidates = {1, 2};
  options.vp_candidates = {1};
  options.objective = PlannerObjective::kGoodput;
  options.resilience.seed = 2025;
  const auto result = SearchBestStrategy(Method::kDapple, config, cluster, 64, options);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->goodput.priced);
  EXPECT_GT(result.best->goodput.checkpoint_interval, 0.0);
  // The write cost includes the consistency barrier plus the shard.
  EXPECT_GT(result.best->goodput.checkpoint_write_cost, 1.0);
  EXPECT_GT(result.best->goodput.goodput, 0.0);
  EXPECT_LE(result.best->goodput.goodput, 1.0);
  // Effective time is the wall-clock cost of one useful iteration.
  EXPECT_GE(result.best->goodput.effective_iteration_time,
            result.best->iteration_time);
  for (const auto& e : result.evaluated) {
    if (e.feasible) {
      EXPECT_TRUE(e.goodput.priced) << e.strategy.ToString();
    } else {
      EXPECT_FALSE(e.goodput.priced) << e.strategy.ToString();
    }
  }
}

TEST(Planner, IterationTimeObjectiveLeavesGoodputUnpriced) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto result = SearchBestStrategy(Method::kDapple, config, cluster, 64);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_FALSE(result.best->goodput.priced);
  EXPECT_GT(result.best->checkpoint_shard, 0);  // sized regardless
  EXPECT_GT(result.best->checkpoint_state, result.best->checkpoint_shard);
}

TEST(Planner, GoodputObjectiveCanFlipTheWinner) {
  // The acceptance scenario: on Llama-7B (32 partition units, so pp=32
  // is admissible) DAPPLE's fault-free winner is pp=4/dp=16 — but its
  // dp-rank-0 checkpoint writers carry 8x the bf16 parameter shard of
  // the pp=32 layout. On a 16384-GPU fleet (MTBF ~22 min) with a slow
  // 50 MB/s checkpoint store, the cheaper checkpoints buy more goodput
  // than the slightly faster schedule does, and the ranking flips.
  const auto config = model::Llama7B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {4, 32};
  options.slice_candidates = {1};
  options.vp_candidates = {1};
  options.allow_recompute = false;
  options.resilience.gpus = 16384;
  options.resilience.reliability.mtbf_per_1000_gpus = 6.0 * 3600.0;
  options.resilience.seed = 2025;
  const Seconds mtbf = 6.0 * 3600.0 * 1000.0 / 16384.0;
  options.resilience.target_useful_time = 60.0 * mtbf;
  options.checkpoint_cost.write_bandwidth_bytes_per_s = 0.05e9;
  options.interval_solver.coarse_points = 9;
  options.interval_solver.golden_iterations = 8;

  const auto fastest = SearchBestStrategy(Method::kDapple, config, cluster, 128, options);
  options.objective = PlannerObjective::kGoodput;
  const auto sturdiest = SearchBestStrategy(Method::kDapple, config, cluster, 128, options);
  ASSERT_TRUE(fastest.best.has_value());
  ASSERT_TRUE(sturdiest.best.has_value());
  EXPECT_EQ(fastest.best->strategy.pp, 4);
  EXPECT_EQ(sturdiest.best->strategy.pp, 32);
  EXPECT_NE(fastest.best->strategy.ToString(), sturdiest.best->strategy.ToString());
  // The flip is real: the goodput winner is slower fault-free but
  // cheaper per useful iteration once failures are priced in.
  EXPECT_GT(sturdiest.best->iteration_time, fastest.best->iteration_time);
  const IterationResult* fault_free_choice = nullptr;
  for (const auto& e : sturdiest.evaluated) {
    if (e.feasible &&
        e.strategy.ToString() == fastest.best->strategy.ToString()) {
      fault_free_choice = &e;
    }
  }
  ASSERT_NE(fault_free_choice, nullptr);
  EXPECT_LT(sturdiest.best->goodput.effective_iteration_time,
            fault_free_choice->goodput.effective_iteration_time);
}

TEST(Planner, JointSearchReducesToPureGoodputWhenThePlanIsEmpty) {
  // The joint straggler x goodput mode must reproduce the standalone
  // goodput ranking when the straggler axis is off: clearing the fault
  // plan from a joint configuration yields the pure goodput search,
  // candidate for candidate.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions joint;
  joint.pp_candidates = {8};
  joint.slice_candidates = {1, 8};
  joint.vp_candidates = {1};
  joint.objective = PlannerObjective::kGoodput;
  joint.resilience.seed = 11;
  joint.interval_solver.coarse_points = 9;
  joint.interval_solver.golden_iterations = 8;
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  joint.fault_plan = faults;

  PlannerOptions goodput_only = joint;
  goodput_only.fault_plan = nullptr;

  const auto joint_off = SearchBestStrategy(Method::kSvpp, config, cluster, 64, goodput_only);
  PlannerOptions pure = goodput_only;  // never carried a plan at all
  const auto standalone = SearchBestStrategy(Method::kSvpp, config, cluster, 64, pure);
  ASSERT_TRUE(joint_off.best.has_value());
  ASSERT_TRUE(standalone.best.has_value());
  EXPECT_EQ(joint_off.best->strategy.ToString(), standalone.best->strategy.ToString());
  EXPECT_NEAR(joint_off.best->goodput.effective_iteration_time,
              standalone.best->goodput.effective_iteration_time, 1e-9);
  ASSERT_EQ(joint_off.evaluated.size(), standalone.evaluated.size());
  for (std::size_t i = 0; i < joint_off.evaluated.size(); ++i) {
    EXPECT_NEAR(joint_off.evaluated[i].goodput.effective_iteration_time,
                standalone.evaluated[i].goodput.effective_iteration_time, 1e-9);
  }
}

TEST(Planner, JointSearchReducesToPureStragglerWhenGoodputIsOff) {
  // ... and the standalone straggler ranking when the goodput axis is
  // off: same plan, objective back to kIterationTime.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions joint;
  joint.pp_candidates = {8};
  joint.slice_candidates = {1, 8};
  joint.vp_candidates = {1};
  joint.objective = PlannerObjective::kGoodput;
  joint.resilience.seed = 11;
  joint.interval_solver.coarse_points = 9;
  joint.interval_solver.golden_iterations = 8;
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  joint.fault_plan = faults;

  PlannerOptions straggler_only = joint;
  straggler_only.objective = PlannerObjective::kIterationTime;

  PlannerOptions pure;  // the standalone straggler search from scratch
  pure.pp_candidates = joint.pp_candidates;
  pure.slice_candidates = joint.slice_candidates;
  pure.vp_candidates = joint.vp_candidates;
  pure.fault_plan = joint.fault_plan;

  const auto joint_off = SearchBestStrategy(Method::kSvpp, config, cluster, 64, straggler_only);
  const auto standalone = SearchBestStrategy(Method::kSvpp, config, cluster, 64, pure);
  ASSERT_TRUE(joint_off.best.has_value());
  ASSERT_TRUE(standalone.best.has_value());
  EXPECT_EQ(joint_off.best->strategy.ToString(), standalone.best->strategy.ToString());
  EXPECT_NEAR(joint_off.best->iteration_time, standalone.best->iteration_time, 1e-9);
  EXPECT_FALSE(joint_off.best->goodput.priced);  // axis really off
}

TEST(Planner, JointSearchPricesFailuresOnTopOfStragglerDilation) {
  // Both axes on at once: every feasible candidate's goodput pricing
  // runs on its *faulted* iteration time, so the joint effective time
  // dominates both standalone costs.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {8};
  options.slice_candidates = {1, 8};
  options.vp_candidates = {1};
  options.resilience.seed = 11;
  options.interval_solver.coarse_points = 9;
  options.interval_solver.golden_iterations = 8;

  const auto clean = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(clean.best.has_value());

  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  options.fault_plan = faults;
  options.objective = PlannerObjective::kGoodput;
  const auto joint = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(joint.best.has_value());
  EXPECT_TRUE(joint.best->goodput.priced);
  // Straggler dilation is in the base iteration time...
  EXPECT_GT(joint.best->iteration_time, clean.best->iteration_time);
  // ...and the failure model compounds on top of it.
  EXPECT_GE(joint.best->goodput.effective_iteration_time,
            joint.best->iteration_time);
  for (const auto& e : joint.evaluated) {
    if (e.feasible) {
      EXPECT_TRUE(e.goodput.priced) << e.strategy.ToString();
      EXPECT_GE(e.goodput.effective_iteration_time, e.iteration_time);
    }
  }
}

TEST(Planner, GoodputPruningKeepsTheWinner) {
  // The compute lower bound stays sound under the goodput score
  // (goodput <= 1 implies score >= iteration_time): pruned and
  // exhaustive searches agree.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions full;
  full.pp_candidates = {4, 8};
  full.slice_candidates = {1, 2};
  full.vp_candidates = {1};
  full.objective = PlannerObjective::kGoodput;
  full.resilience.seed = 7;
  PlannerOptions pruned = full;
  pruned.prune = true;
  const auto a = SearchBestStrategy(Method::kDapple, config, cluster, 64, full);
  const auto b = SearchBestStrategy(Method::kDapple, config, cluster, 64, pruned);
  ASSERT_TRUE(a.best.has_value());
  ASSERT_TRUE(b.best.has_value());
  EXPECT_EQ(a.best->strategy.ToString(), b.best->strategy.ToString());
  EXPECT_NEAR(a.best->goodput.effective_iteration_time,
              b.best->goodput.effective_iteration_time, 1e-9);
  EXPECT_EQ(a.evaluated.size(), b.evaluated.size());
}

}  // namespace
}  // namespace mepipe::core
