// Tests for heterogeneous-fleet planning (core/fleet + the planner's
// fleet path): placement enumeration, speed-proportional layer splits,
// the single-tier bit-identity contract, surrogate fidelity on placed
// candidates, dollar-cost pricing, and the objective flip the paper's
// economics imply.
#include "core/fleet.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/deployment.h"
#include "core/iteration.h"
#include "core/planner.h"
#include "core/rebalance.h"
#include "core/surrogate.h"
#include "hw/cluster.h"
#include "model/memory.h"
#include "model/transformer.h"
#include "sim/fault.h"

namespace mepipe::core {
namespace {

hw::ClusterTopology MixedFleet(const hw::TierLink& cross) {
  hw::ClusterTopology fleet;
  fleet.tiers = {hw::Rtx4090Tier(), hw::A100Tier()};
  fleet.SetLinkBetween(0, 1, cross);
  return fleet;
}

hw::TierLink Lan() { return hw::LanLink(hw::Rtx4090Cluster().inter_node); }

PlacedStrategy Placed(Method method, int pp, int dp, int spp, hw::StagePlacement placement) {
  PlacedStrategy placed;
  placed.strategy.method = method;
  placed.strategy.pp = pp;
  placed.strategy.dp = dp;
  placed.strategy.spp = spp;
  placed.placement = std::move(placement);
  return placed;
}

// ---- PartitionUnitsBySpeed pins (satellite: 2x / 4x ratios) ---------------

TEST(PartitionBySpeed, TwoTimesSlowerStageHostsHalfTheLayers) {
  // Two stages, the second 2x slower, 12 units: load is equalized at
  // 8·1 == 4·2.
  const auto units = PartitionUnitsBySpeed(12, {1.0, 2.0}, 1);
  EXPECT_EQ(units, (std::vector<int>{8, 4}));
}

TEST(PartitionBySpeed, FourTimesSlowerStageHostsAQuarter) {
  const auto units = PartitionUnitsBySpeed(10, {1.0, 4.0}, 1);
  EXPECT_EQ(units, (std::vector<int>{8, 2}));
}

TEST(PartitionBySpeed, OneSlowStageAmongFourFastOnes) {
  const auto units = PartitionUnitsBySpeed(32, {1.0, 1.0, 1.0, 4.0}, 1);
  ASSERT_EQ(units.size(), 4u);
  EXPECT_EQ(units[0] + units[1] + units[2] + units[3], 32);
  // The 4x stage ends with the fewest layers and the bottleneck
  // max(units_i · slowdown_i) is the optimal 10.
  EXPECT_EQ(units[3], 2);
  double bottleneck = 0;
  const std::vector<double> slowdown = {1.0, 1.0, 1.0, 4.0};
  for (std::size_t i = 0; i < units.size(); ++i) {
    bottleneck = std::max(bottleneck, units[i] * slowdown[i]);
  }
  EXPECT_DOUBLE_EQ(bottleneck, 10.0);
}

// ---- Placement enumeration and slowdown profiles --------------------------

TEST(Placements, EnumerationOrderIsUniformThenContiguousSplits) {
  const auto fleet = MixedFleet(Lan());
  const auto placements = EnumeratePlacements(fleet, 3);
  ASSERT_EQ(placements.size(), 6u);
  EXPECT_EQ(placements[0].stage_tier, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(placements[1].stage_tier, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(placements[2].stage_tier, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(placements[3].stage_tier, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(placements[4].stage_tier, (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(placements[5].stage_tier, (std::vector<int>{1, 1, 0}));
}

TEST(Placements, SlowdownsAreRelativeToTheFastestTier) {
  const auto fleet = MixedFleet(Lan());
  hw::StagePlacement split;
  split.stage_tier = {1, 1, 0, 0};
  const auto profile = PlacementSlowdowns(fleet, split);
  ASSERT_EQ(profile.slowdown.size(), 4u);
  // The A100 is the fastest tier: its stages sit at exactly 1, the 4090
  // stages strictly above.
  EXPECT_DOUBLE_EQ(profile.slowdown[0], 1.0);
  EXPECT_DOUBLE_EQ(profile.slowdown[1], 1.0);
  EXPECT_GT(profile.slowdown[2], 1.0);
  EXPECT_DOUBLE_EQ(profile.slowdown[2], profile.slowdown[3]);
  EXPECT_DOUBLE_EQ(profile.slowdown[2], fleet.TierSlowdown(0));
}

TEST(Placements, ValidateFlagsOversubscriptionAndShape) {
  const auto fleet = MixedFleet(Lan());
  // 4 stages x dp=16 = 64 ranks, all on the 32-GPU A100 tier.
  hw::ParallelLayout layout{4, 16, 1, 1};
  const auto oversub = layout.Validate(fleet, hw::StagePlacement::Uniform(4, 1));
  ASSERT_FALSE(oversub.empty());
  EXPECT_EQ(oversub.front().code, hw::LayoutIssue::Code::kRankOversubscription);

  const auto wrong_shape = layout.Validate(fleet, hw::StagePlacement::Uniform(3, 0));
  ASSERT_FALSE(wrong_shape.empty());
  EXPECT_EQ(wrong_shape.front().code, hw::LayoutIssue::Code::kPlacementShape);

  // tp > 1 on the consumer (through-host) tier is structurally flagged.
  hw::ParallelLayout tp2{4, 2, 1, 2};
  const auto issues = tp2.Validate(fleet, hw::StagePlacement::Uniform(4, 0));
  bool flagged = false;
  for (const auto& issue : issues) {
    flagged |= issue.code == hw::LayoutIssue::Code::kTensorParallelOnConsumerTier;
  }
  EXPECT_TRUE(flagged);
}

// ---- Single-tier bit-identity ---------------------------------------------

// One structurally valid 7B shape per method on the 4090 (pp=4, dp=16,
// GBS 64). ZBV-capped's is the case where the honest memory floor turns
// a 22.57 GiB peak into an OOM on a 22.50 GiB device.
std::vector<Strategy> EveryMethod() {
  std::vector<Strategy> shapes;
  for (const Method method :
       {Method::kGPipe, Method::kDapple, Method::kVpp, Method::kTeraPipe, Method::kZb1p,
        Method::kZbv, Method::kZbvCapped, Method::kSvpp, Method::kHanayo, Method::kSynth}) {
    Strategy s;
    s.method = method;
    s.pp = 4;
    s.dp = 16;
    s.vp = method == Method::kVpp || method == Method::kZbv || method == Method::kZbvCapped ||
                   method == Method::kHanayo || method == Method::kSynth
               ? 2
               : 1;
    s.spp = method == Method::kSvpp ? 4 : method == Method::kTeraPipe ? 2 : 1;
    shapes.push_back(s);
  }
  return shapes;
}

TEST(SingleTier, PlacedIterationReproducesSimulateIterationBitForBit) {
  const auto config = model::Llama7B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto fleet = hw::SingleTierTopology(cluster);
  for (const Strategy& strategy : EveryMethod()) {
    const PlacedStrategy placed{strategy, hw::StagePlacement::Uniform(strategy.pp, 0)};
    for (const bool dp_overlap : {false, true}) {
      SCOPED_TRACE(strategy.ToString() + (dp_overlap ? " dp_overlap" : ""));
      IterationOptions options;
      options.dp_overlap = dp_overlap;
      const auto reference = SimulateIteration(config, strategy, cluster, 64, options);
      const auto fleet_view = SimulatePlacedIteration(config, placed, fleet, 64, options);
      ASSERT_GT(reference.pipeline_time, 0) << reference.note;
      EXPECT_EQ(fleet_view.result.feasible, reference.feasible);
      EXPECT_EQ(fleet_view.result.note, reference.note);
      EXPECT_EQ(fleet_view.result.micros, reference.micros);
      EXPECT_EQ(fleet_view.result.pipeline_time, reference.pipeline_time);
      EXPECT_EQ(fleet_view.result.dp_sync_time, reference.dp_sync_time);
      EXPECT_EQ(fleet_view.result.dp.serialized, reference.dp.serialized);
      EXPECT_EQ(fleet_view.result.dp.hidden, reference.dp.hidden);
      EXPECT_EQ(fleet_view.result.dp.exposed, reference.dp.exposed);
      EXPECT_EQ(fleet_view.result.iteration_time, reference.iteration_time);
      EXPECT_EQ(fleet_view.result.bubble_ratio, reference.bubble_ratio);
      EXPECT_EQ(fleet_view.result.static_memory, reference.static_memory);
      EXPECT_EQ(fleet_view.result.peak_activation, reference.peak_activation);
      EXPECT_EQ(fleet_view.result.peak_memory, reference.peak_memory);
      EXPECT_EQ(fleet_view.result.checkpoint_shard, reference.checkpoint_shard);
      EXPECT_EQ(fleet_view.result.per_gpu_flops, reference.per_gpu_flops);
      EXPECT_EQ(fleet_view.result.mfu, reference.mfu);
      // No placement heterogeneity: every stage at slowdown 1, even split.
      for (const double s : fleet_view.slowdown) {
        EXPECT_DOUBLE_EQ(s, 1.0);
      }
    }
  }
}

TEST(SingleTier, PlacedSurrogateReproducesSurrogatePriceBitForBit) {
  const auto config = model::Llama7B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto fleet = hw::SingleTierTopology(cluster);
  for (const Strategy& strategy : EveryMethod()) {
    SCOPED_TRACE(strategy.ToString());
    const PlacedStrategy placed{strategy, hw::StagePlacement::Uniform(strategy.pp, 0)};
    const auto reference = SurrogatePrice(config, strategy, cluster, 64);
    const auto fleet_view = SurrogatePricePlaced(config, placed, fleet, 64);
    ASSERT_GT(reference.pipeline_time, 0) << reference.note;
    EXPECT_EQ(fleet_view.result.feasible, reference.feasible);
    EXPECT_EQ(fleet_view.result.note, reference.note);
    EXPECT_EQ(fleet_view.result.micros, reference.micros);
    EXPECT_EQ(fleet_view.result.pipeline_time, reference.pipeline_time);
    EXPECT_EQ(fleet_view.result.dp_sync_time, reference.dp_sync_time);
    EXPECT_EQ(fleet_view.result.iteration_time, reference.iteration_time);
    EXPECT_EQ(fleet_view.result.bubble_ratio, reference.bubble_ratio);
    EXPECT_EQ(fleet_view.result.static_memory, reference.static_memory);
    EXPECT_EQ(fleet_view.result.peak_activation, reference.peak_activation);
    EXPECT_EQ(fleet_view.result.peak_memory, reference.peak_memory);
    EXPECT_EQ(fleet_view.result.checkpoint_shard, reference.checkpoint_shard);
  }
}

TEST(SingleTier, PlacedIterationRunsFaultsNoiseAndMitigationLikeSimulateIteration) {
  // On one tier the placed path runs SimulateIteration's perturbations
  // unchanged: a persistent straggler, its mitigation, and noise.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto placed = Placed(Method::kSvpp, 8, 8, 4, hw::StagePlacement::Uniform(8, 0));
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  IterationOptions options;
  options.fault_plan = faults;
  options.rebalance_stragglers = true;
  options.noise_sigma = 0.05;
  options.noise_seed = 11;
  const auto reference = SimulateIteration(config, placed.strategy, cluster, 64, options);
  const auto fleet_view =
      SimulatePlacedIteration(config, placed, hw::SingleTierTopology(cluster), 64, options);
  ASSERT_TRUE(reference.feasible) << reference.note;
  EXPECT_TRUE(reference.mitigation.rebalanced);
  EXPECT_EQ(fleet_view.result.mitigation.rebalanced, reference.mitigation.rebalanced);
  EXPECT_EQ(fleet_view.result.mitigation.unmitigated_pipeline_time,
            reference.mitigation.unmitigated_pipeline_time);
  EXPECT_EQ(fleet_view.result.iteration_time, reference.iteration_time);
  EXPECT_EQ(fleet_view.result.peak_memory, reference.peak_memory);
}

TEST(MultiTier, FaultsNoiseAndMitigationAreRejected) {
  // The placed candidate folds static heterogeneity into its schedule;
  // runtime perturbations on top of it are not modeled, so they raise
  // instead of being silently dropped.
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  hw::StagePlacement split;
  split.stage_tier = {1, 1, 0, 0};
  const auto placed = Placed(Method::kSvpp, 4, 4, 4, split);
  ASSERT_TRUE(SimulatePlacedIteration(config, placed, fleet, 128).result.feasible);

  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  IterationOptions faulted;
  faulted.fault_plan = faults;
  EXPECT_THROW(SimulatePlacedIteration(config, placed, fleet, 128, faulted), CheckError);
  IterationOptions noisy;
  noisy.noise_sigma = 0.05;
  EXPECT_THROW(SimulatePlacedIteration(config, placed, fleet, 128, noisy), CheckError);
  IterationOptions mitigated;
  mitigated.rebalance_stragglers = true;
  EXPECT_THROW(SimulatePlacedIteration(config, placed, fleet, 128, mitigated), CheckError);

  // The fleet search refuses them up front rather than per candidate.
  PlannerOptions search;
  search.min_dp = 1;
  search.pp_candidates = {4};
  search.slice_candidates = {4};
  search.vp_candidates = {1};
  search.iteration = noisy;
  EXPECT_THROW(SearchBestFleetStrategy(Method::kSvpp, config, fleet, 128, search), CheckError);
}

// ---- Heterogeneous pricing ------------------------------------------------

TEST(Hetero, SlowTierStagesHostFewerLayersAndStretchTheIteration) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  hw::StagePlacement split;
  split.stage_tier = {1, 1, 0, 0};  // A100 first half, 4090 second half
  const auto placed = Placed(Method::kSvpp, 4, 4, 4, split);
  const auto out = SimulatePlacedIteration(config, placed, fleet, 128);
  ASSERT_TRUE(out.result.feasible) << out.result.note;
  ASSERT_EQ(out.stage_units.size(), 4u);
  // Speed-proportional partition: the fast A100 stages take strictly
  // more layers than the 4090 stages.
  EXPECT_GT(out.stage_units[0], out.stage_units[2]);
  EXPECT_EQ(out.stage_units[0], out.stage_units[1]);
  EXPECT_EQ(out.stage_units[2], out.stage_units[3]);

  // The same shape run entirely on A100s is faster than the mixed
  // placement; entirely on 4090s slower.
  const auto premium =
      SimulatePlacedIteration(config, Placed(Method::kSvpp, 4, 4, 4,
                                             hw::StagePlacement::Uniform(4, 1)),
                              fleet, 128);
  ASSERT_TRUE(premium.result.feasible) << premium.result.note;
  EXPECT_LT(premium.result.iteration_time, out.result.iteration_time);
  const auto budget =
      SimulatePlacedIteration(config, Placed(Method::kSvpp, 4, 4, 4,
                                             hw::StagePlacement::Uniform(4, 0)),
                              fleet, 128);
  ASSERT_TRUE(budget.result.feasible) << budget.result.note;
  EXPECT_GT(budget.result.iteration_time, out.result.iteration_time);
}

TEST(Hetero, SurrogateTracksTheDesOnPlacedCandidates) {
  // Surrogate-vs-DES fidelity pin on a heterogeneous config: the tabular
  // price stays within a few percent of the engine's makespan (the only
  // approximation is transfer contention).
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  hw::StagePlacement split;
  split.stage_tier = {1, 1, 0, 0};
  const auto placed = Placed(Method::kSvpp, 4, 4, 4, split);
  const auto des = SimulatePlacedIteration(config, placed, fleet, 128);
  const auto surrogate = SurrogatePricePlaced(config, placed, fleet, 128);
  ASSERT_TRUE(des.result.feasible);
  ASSERT_TRUE(surrogate.result.feasible);
  const double rel = std::abs(surrogate.result.iteration_time - des.result.iteration_time) /
                     des.result.iteration_time;
  EXPECT_LT(rel, 0.05) << "surrogate " << surrogate.result.iteration_time << " vs DES "
                       << des.result.iteration_time;
  // The dollar decomposition agrees on the placement-static parts.
  EXPECT_EQ(surrogate.dollars.fleet_usd_per_hour, des.dollars.fleet_usd_per_hour);
  EXPECT_EQ(surrogate.dollars.wan_egress_bytes, des.dollars.wan_egress_bytes);
}

TEST(Hetero, PlacedSurrogateCacheHitsReproduceTheMiss) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  hw::StagePlacement split;
  split.stage_tier = {1, 1, 0, 0};
  const auto placed = Placed(Method::kSvpp, 4, 4, 4, split);
  SurrogateCache cache;
  SurrogateOptions options;
  options.cache = &cache;
  const auto miss = SurrogatePricePlaced(config, placed, fleet, 128, options);
  const auto hit = SurrogatePricePlaced(config, placed, fleet, 128, options);
  EXPECT_FALSE(miss.result.cache_hit);
  EXPECT_TRUE(hit.result.cache_hit);
  EXPECT_EQ(hit.result.iteration_time, miss.result.iteration_time);
  EXPECT_EQ(hit.dollars.usd_per_iteration, miss.dollars.usd_per_iteration);
}

// ---- Dollar-cost pricing --------------------------------------------------

TEST(Dollars, RentalRatesFollowOccupiedRanks) {
  const auto fleet = MixedFleet(Lan());
  // Whole fleet: 64 x $0.35 + 32 x $1.90.
  EXPECT_DOUBLE_EQ(FleetHourlyCostUsd(fleet), 64 * 0.35 + 32 * 1.90);
  // A 4-stage x dp=2 layout entirely on the A100 tier rents 8 ranks.
  hw::ParallelLayout layout{4, 2, 1, 1};
  EXPECT_DOUBLE_EQ(
      PlacementHourlyCostUsd(fleet, hw::StagePlacement::Uniform(4, 1), layout),
      8 * 1.90);
  // Split placement: half the ranks at each rate.
  hw::StagePlacement split;
  split.stage_tier = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(PlacementHourlyCostUsd(fleet, split, layout),
                   4 * 0.35 + 4 * 1.90);
}

TEST(Dollars, EgressBilledPerDecimalGigabyte) {
  EXPECT_DOUBLE_EQ(EgressCostUsd(2'000'000'000, 0.05), 0.10);
  EXPECT_DOUBLE_EQ(EgressCostUsd(0, 0.05), 0.0);
  EXPECT_THROW(EgressCostUsd(-1, 0.05), CheckError);
  EXPECT_THROW(EgressCostUsd(1, -0.01), CheckError);
}

TEST(Dollars, SurrogateBillsTheSameEgressAsTheDesForVShapedSynth) {
  // Synth at vp=2 folds its chunks back (V shape): a 4|4 split crosses
  // the WAN at two chunk boundaries, not the three an interleaved
  // placement would cross. Both pricers derive the shape from ProblemFor.
  const auto config = model::Llama7B();
  const auto wan = MixedFleet(hw::WanLink(25.0, 0.02));
  hw::StagePlacement split;
  split.stage_tier = {0, 0, 0, 0, 1, 1, 1, 1};
  PlacedStrategy placed = Placed(Method::kSynth, 8, 2, 1, split);
  placed.strategy.vp = 2;
  const auto des = SimulatePlacedIteration(config, placed, wan, 16);
  const auto surrogate = SurrogatePricePlaced(config, placed, wan, 16);
  ASSERT_TRUE(des.result.feasible) << des.result.note;
  EXPECT_GT(des.dollars.wan_egress_bytes, 0);
  EXPECT_EQ(surrogate.dollars.wan_egress_bytes, des.dollars.wan_egress_bytes);
  EXPECT_EQ(surrogate.dollars.egress_usd_per_iteration, des.dollars.egress_usd_per_iteration);
  // Two crossings, each moving every sample's boundary tensor both ways.
  const sched::PipelineProblem problem = ProblemFor(placed.strategy, 16 / 2);
  EXPECT_EQ(problem.placement, sched::ChunkPlacement::kVShape);
  EXPECT_EQ(des.dollars.wan_egress_bytes,
            2 * model::BoundaryBytesPerToken(config) * config.seq_len * 16 * 2);
}

TEST(Dollars, WanEgressScalesWithTierCrossings) {
  const auto config = model::Llama7B();
  const auto wan = MixedFleet(hw::WanLink(25.0, 0.02));
  hw::StagePlacement one_crossing;
  one_crossing.stage_tier = {0, 0, 1, 1};
  hw::StagePlacement three_crossings;
  three_crossings.stage_tier = {0, 1, 0, 1};
  const auto once = SimulatePlacedIteration(
      config, Placed(Method::kSvpp, 4, 4, 4, one_crossing), wan, 128);
  const auto thrice = SimulatePlacedIteration(
      config, Placed(Method::kSvpp, 4, 4, 4, three_crossings), wan, 128);
  ASSERT_TRUE(once.result.feasible) << once.result.note;
  ASSERT_TRUE(thrice.result.feasible) << thrice.result.note;
  EXPECT_GT(once.dollars.wan_egress_bytes, 0);
  EXPECT_EQ(thrice.dollars.wan_egress_bytes, 3 * once.dollars.wan_egress_bytes);
  EXPECT_DOUBLE_EQ(once.dollars.usd_per_iteration,
                   once.dollars.rental_usd_per_iteration +
                       once.dollars.egress_usd_per_iteration);

  // The same crossings over a LAN link bill nothing.
  const auto lan = MixedFleet(Lan());
  const auto free_lan = SimulatePlacedIteration(
      config, Placed(Method::kSvpp, 4, 4, 4, one_crossing), lan, 128);
  ASSERT_TRUE(free_lan.result.feasible);
  EXPECT_EQ(free_lan.dollars.wan_egress_bytes, 0);
  EXPECT_DOUBLE_EQ(free_lan.dollars.egress_usd_per_iteration, 0.0);
}

// ---- The fleet grid search ------------------------------------------------

PlannerOptions FleetSearchOptions(PlannerObjective objective, int threads) {
  PlannerOptions options;
  options.min_dp = 1;
  options.pp_candidates = {4, 8};
  options.slice_candidates = {1, 4};
  options.vp_candidates = {1};
  options.two_phase = true;
  options.surrogate_top_k = 8;
  options.threads = threads;
  options.objective = objective;
  return options;
}

TEST(FleetSearch, DollarObjectiveFlipsTheWinnerAwayFromPremium) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(hw::WanLink(5.0, 0.08));
  const auto by_time = SearchBestFleetStrategy(
      Method::kSvpp, config, fleet, 128,
      FleetSearchOptions(PlannerObjective::kIterationTime, 1));
  const auto by_cost = SearchBestFleetStrategy(
      Method::kSvpp, config, fleet, 128,
      FleetSearchOptions(PlannerObjective::kDollarCost, 1));
  ASSERT_TRUE(by_time.best.has_value());
  ASSERT_TRUE(by_cost.best.has_value());
  // The objectives disagree: time pays for the premium tier, dollars do
  // not — and each winner is optimal under its own metric.
  EXPECT_NE(by_time.best->placed.ToString(), by_cost.best->placed.ToString());
  EXPECT_LT(by_cost.best->dollars.usd_per_iteration,
            by_time.best->dollars.usd_per_iteration);
  EXPECT_LE(by_time.best->result.iteration_time, by_cost.best->result.iteration_time);
  // Placements that failed validation were filtered, not evaluated.
  EXPECT_GT(by_cost.invalid_placements, 0);
  EXPECT_GT(by_cost.evaluated, 0);
}

TEST(FleetSearch, TwoPhaseWinnerIsThreadCountInvariant) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(hw::WanLink(25.0, 0.02));
  std::optional<PlacedIterationResult> reference;
  for (const int threads : {1, 2, 8}) {
    const auto result = SearchBestFleetStrategy(
        Method::kSvpp, config, fleet, 128,
        FleetSearchOptions(PlannerObjective::kDollarCost, threads));
    ASSERT_TRUE(result.best.has_value()) << "threads=" << threads;
    if (!reference) {
      reference = result.best;
      continue;
    }
    EXPECT_EQ(result.best->placed.ToString(), reference->placed.ToString());
    EXPECT_EQ(result.best->result.iteration_time, reference->result.iteration_time);
    EXPECT_EQ(result.best->dollars.usd_per_iteration,
              reference->dollars.usd_per_iteration);
  }
}

TEST(FleetSearch, GoodputObjectiveIsRejected) {
  const auto fleet = MixedFleet(Lan());
  EXPECT_THROW(SearchBestFleetStrategy(
                   Method::kSvpp, model::Llama7B(), fleet, 128,
                   FleetSearchOptions(PlannerObjective::kGoodput, 1)),
               CheckError);
}

}  // namespace
}  // namespace mepipe::core
