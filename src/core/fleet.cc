#include "core/fleet.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "core/deployment.h"
#include "model/flops.h"
#include "model/memory.h"
#include "model/slicing.h"
#include "sched/generator.h"
#include "sched/schedule.h"
#include "sched/zbv.h"
#include "sim/engine.h"
#include "sim/noise.h"

namespace mepipe::core {
namespace {

Bytes Scaled(Bytes bytes, double scale) {
  return static_cast<Bytes>(std::llround(static_cast<double>(bytes) * scale));
}

// PlacementSlowdowns relative to the fastest tier the placement occupies:
// the reference device a placed candidate's absolute durations are
// priced on.
std::vector<double> OccupiedSlowdowns(const hw::ClusterTopology& topology,
                                      const hw::StagePlacement& placement) {
  std::vector<double> slowdown = PlacementSlowdowns(topology, placement).slowdown;
  const double fastest = *std::min_element(slowdown.begin(), slowdown.end());
  for (double& s : slowdown) {
    s /= fastest;
  }
  return slowdown;
}

}  // namespace

StageProfile PlacementSlowdowns(const hw::ClusterTopology& topology,
                                const hw::StagePlacement& placement) {
  StageProfile profile;
  profile.slowdown.reserve(placement.stage_tier.size());
  for (const int tier : placement.stage_tier) {
    profile.slowdown.push_back(topology.TierSlowdown(tier));
  }
  return profile;
}

std::vector<hw::StagePlacement> EnumeratePlacements(const hw::ClusterTopology& topology,
                                                    int pp) {
  MEPIPE_CHECK_GE(pp, 1) << "placements need at least one stage";
  std::vector<hw::StagePlacement> out;
  for (int t = 0; t < topology.num_tiers(); ++t) {
    out.push_back(hw::StagePlacement::Uniform(pp, t));
  }
  for (int a = 0; a < topology.num_tiers(); ++a) {
    for (int b = 0; b < topology.num_tiers(); ++b) {
      if (a == b) {
        continue;
      }
      for (int k = 1; k < pp; ++k) {
        hw::StagePlacement placement = hw::StagePlacement::Uniform(pp, b);
        for (int stage = 0; stage < k; ++stage) {
          placement.stage_tier[static_cast<std::size_t>(stage)] = a;
        }
        out.push_back(std::move(placement));
      }
    }
  }
  return out;
}

std::string PlacedStrategy::ToString() const {
  return strategy.ToString() + " @ " + placement.ToString();
}

Bytes WanEgressBytesPerIteration(const model::TransformerConfig& config,
                                 const PlacedStrategy& placed,
                                 const sched::PipelineProblem& problem,
                                 const hw::ClusterTopology& topology) {
  if (topology.num_tiers() < 2 || placed.placement.uniform()) {
    return 0;
  }
  // One WAN crossing moves every sample's full boundary tensor each
  // iteration, in both directions: micros per replica × dp replicas ×
  // seq_len tokens (summed across slices and cp ranks) × bytes/token.
  const Bytes per_crossing = model::BoundaryBytesPerToken(config) * config.seq_len *
                             problem.micros * placed.strategy.dp * 2;
  Bytes total = 0;
  for (int g = 0; g + 1 < problem.num_chunks(); ++g) {
    const int from = placed.placement.tier_of(problem.stage_of_chunk(g));
    const int to = placed.placement.tier_of(problem.stage_of_chunk(g + 1));
    if (from == to || !topology.LinkBetween(from, to).wan) {
      continue;
    }
    total += per_crossing;
  }
  return total;
}

DollarCostBreakdown PriceDollarCost(const hw::ClusterTopology& topology,
                                    const PlacedStrategy& placed, Seconds iteration_time,
                                    Bytes wan_egress_bytes,
                                    double egress_usd_per_gb_override) {
  DollarCostBreakdown out;
  out.fleet_usd_per_hour =
      PlacementHourlyCostUsd(topology, placed.placement, placed.strategy.layout());
  out.wan_egress_bytes = wan_egress_bytes;
  double rate = egress_usd_per_gb_override;
  if (rate < 0) {
    // The priciest WAN link the placement actually crosses (in practice a
    // two-tier split crosses exactly one).
    rate = 0;
    for (int stage = 0; stage + 1 < placed.placement.stages(); ++stage) {
      const int a = placed.placement.tier_of(stage);
      const int b = placed.placement.tier_of(stage + 1);
      if (a == b || !topology.LinkBetween(a, b).wan) {
        continue;
      }
      rate = std::max(rate, topology.LinkBetween(a, b).usd_per_gb_egress);
    }
  }
  out.egress_usd_per_iteration = EgressCostUsd(wan_egress_bytes, rate);
  out.rental_usd_per_iteration = out.fleet_usd_per_hour * iteration_time / 3600.0;
  out.usd_per_iteration = out.rental_usd_per_iteration + out.egress_usd_per_iteration;
  return out;
}

TierScaledCostModel::TierScaledCostModel(const sim::CostModel& base,
                                         const TrainingCostModel& priced,
                                         const hw::ClusterTopology& topology,
                                         const PlacedStrategy& placed,
                                         const RebalancePlan& plan)
    : sim::WrappingCostModel(base),
      priced_(priced),
      comm_(topology, placed.placement),
      layout_(placed.strategy.layout()),
      problem_(priced.problem()),
      stage_slowdown_(OccupiedSlowdowns(topology, placed.placement)) {
  chunk_scale_.resize(static_cast<std::size_t>(problem_.num_chunks()));
  for (int g = 0; g < problem_.num_chunks(); ++g) {
    chunk_scale_[static_cast<std::size_t>(g)] = plan.unit_ratio(g);
  }
}

Seconds TierScaledCostModel::ComputeTime(const sched::OpId& op) const {
  if (op.kind == sched::OpKind::kDpSync) {
    return base().ComputeTime(op);  // priced via DpSyncTime below
  }
  const int stage = problem_.stage_of_chunk(op.chunk);
  return base().ComputeTime(op) * stage_slowdown_[static_cast<std::size_t>(stage)];
}

Seconds TierScaledCostModel::TransferTime(const sched::OpId& producer) const {
  int delta = 0;
  if (producer.kind == sched::OpKind::kForward) {
    delta = 1;
  } else if (producer.kind == sched::OpKind::kBackward) {
    delta = -1;
  } else {
    return base().TransferTime(producer);
  }
  const int consumer = producer.chunk + delta;
  if (consumer < 0 || consumer >= problem_.num_chunks()) {
    return base().TransferTime(producer);
  }
  const int from = problem_.stage_of_chunk(producer.chunk);
  const int to = problem_.stage_of_chunk(consumer);
  if (from == to) {
    // Same-stage chunk handoff (the V-shape turn); charged only when the
    // engine considers it cross-stage, which it never does.
    return base().TransferTime(producer);
  }
  return comm_.PipelineP2pAcross(priced_.BoundaryBytes(producer.slice), layout_, from, to);
}

Seconds TierScaledCostModel::DpSyncTime(const sched::OpId& bucket) const {
  const Bytes bytes = Scaled(priced_.ChunkParamBytes(bucket.chunk),
                            chunk_scale_[static_cast<std::size_t>(bucket.chunk)]);
  return comm_.DpGradientSyncAtStage(bytes, layout_, problem_.stage_of_chunk(bucket.chunk));
}

namespace {

// A candidate ready to price: the homogeneous build on the reference
// tier's sub-cluster, the slowdown profile relative to that tier, the
// adopted layer re-partition, and per-stage scale factors for static
// memory.
struct PlacedBuild {
  CandidateBuild build;
  StageProfile profile;  // each >= 1
  RebalancePlan plan;    // default (no-op) when compute is uniform
  std::vector<double> static_scale;
};

// Builds `placed` for pricing. `exact_cover` picks the admissibility
// rules. Placed requests pass null: ParallelLayout::Validate on the
// topology and placement, then a reference sub-cluster sized to the
// layout. ClusterSpec requests pass their cluster: BuildCandidate's own
// checks against the whole of it, so the layout must cover it exactly and
// tp>1 on a through-host fabric is priced rather than rejected.
PlacedBuild BuildPlaced(const model::TransformerConfig& config, const PlacedStrategy& placed,
                        const hw::ClusterTopology& topology, int global_batch,
                        const IterationOptions& options, const hw::ClusterSpec* exact_cover) {
  PlacedBuild pb;
  if (exact_cover != nullptr) {
    pb.build = BuildCandidate(config, placed.strategy, *exact_cover, global_batch, options);
  } else {
    const hw::ParallelLayout layout = placed.strategy.layout();
    const int ranks = layout.ranks();
    const std::vector<hw::LayoutIssue> issues = layout.Validate(topology, placed.placement);
    if (!issues.empty()) {
      pb.build.note = issues.front().message;
      return pb;
    }
    // Reference tier: fastest among the tiers the placement occupies.
    int ref = placed.placement.tier_of(0);
    for (const int t : placed.placement.stage_tier) {
      if (topology.TierSlowdown(t) < topology.TierSlowdown(ref) ||
          (topology.TierSlowdown(t) == topology.TierSlowdown(ref) && t < ref)) {
        ref = t;
      }
    }
    // Its spec resized to exactly the layout's ranks, so the homogeneous
    // BuildCandidate machinery applies unchanged.
    hw::ClusterSpec ref_spec = topology.tier(ref).spec();
    if (ranks <= ref_spec.gpus_per_node) {
      ref_spec.nodes = 1;
      ref_spec.gpus_per_node = ranks;
    } else if (ranks % ref_spec.gpus_per_node == 0) {
      ref_spec.nodes = ranks / ref_spec.gpus_per_node;
    } else {
      pb.build.note = StrFormat("layout ranks %d not divisible by tier %s's %d GPUs per node",
                                ranks, topology.tier(ref).name.c_str(), ref_spec.gpus_per_node);
      return pb;
    }
    pb.build = BuildCandidate(config, placed.strategy, ref_spec, global_batch, options);
  }
  if (!pb.build.feasible) {
    return pb;
  }
  const sched::PipelineProblem& problem = pb.build.problem;
  pb.static_scale.assign(static_cast<std::size_t>(problem.stages), 1.0);

  pb.profile.slowdown = OccupiedSlowdowns(topology, placed.placement);
  if (std::any_of(pb.profile.slowdown.begin(), pb.profile.slowdown.end(),
                  [](double s) { return s != 1.0; })) {
    // Shed layers off the slow tiers and regenerate the program order —
    // the MitigateStragglers idiom, applied to a *static* speed profile.
    RebalanceOptions rebalance;
    rebalance.repartition_layers = true;
    rebalance.rebalance_slices = false;
    rebalance.retune_caps = true;
    rebalance.units_per_chunk =
        static_cast<int>(config.partition_units()) / problem.num_chunks();
    rebalance.min_units_per_chunk = 1;
    const int floor_cap = problem.virtual_chunks * problem.slices;
    rebalance.base_caps.resize(static_cast<std::size_t>(problem.stages));
    for (int i = 0; i < problem.stages; ++i) {
      rebalance.base_caps[static_cast<std::size_t>(i)] =
          std::max(floor_cap, sched::PeakRetainedForwards(pb.build.schedule, i));
    }
    pb.plan = Rebalance(pb.profile, problem, rebalance);
    if (pb.plan.any_change()) {
      sched::GeneratorOptions generator;
      generator.inflight_cap =
          pb.plan.new_caps.empty() ? rebalance.base_caps : pb.plan.new_caps;
      generator.backward_first = true;
      generator.child_count_backward_priority = true;
      generator.wgrad = pb.build.schedule.deferred_wgrad ? sched::WgradPolicy::kDeferred
                                                         : sched::WgradPolicy::kLowestPriority;
      generator.b_time = problem.split_backward ? 1.0 : 2.0;
      generator.stage_time_scale.resize(static_cast<std::size_t>(problem.stages));
      for (int i = 0; i < problem.stages; ++i) {
        generator.stage_time_scale[static_cast<std::size_t>(i)] =
            pb.profile.slowdown[static_cast<std::size_t>(i)] *
            pb.plan.stage_unit_ratio(problem, i);
        pb.static_scale[static_cast<std::size_t>(i)] = pb.plan.stage_unit_ratio(problem, i);
      }
      pb.build.schedule =
          sched::GenerateCapped(problem, generator, pb.build.schedule.method + "+placed");
    }
  }

  // Activation budgets against the *hosting* tier's memory, with static
  // memory scaled by the adopted layer share. The single-tier uniform
  // case recomputes exactly what BuildCandidate produced.
  if (problem.split_backward) {
    const TrainingCostModel& costs = *pb.build.costs;
    for (int stage = 0; stage < problem.stages; ++stage) {
      const Bytes usable =
          topology.tier(placed.placement.tier_of(stage)).gpu.usable_memory();
      pb.build.activation_budget[static_cast<std::size_t>(stage)] = std::max<Bytes>(
          0, usable - Scaled(costs.StaticMemory(stage),
                             pb.static_scale[static_cast<std::size_t>(stage)]));
    }
  }
  return pb;
}

// The candidate's cost model as both pricers execute it: the build's
// TrainingCostModel, re-partitioned by the placement's plan and re-priced
// for the tiers it spans. A single-tier build is executed unwrapped.
sim::CostModelStack PlacedCosts(const PlacedBuild& pb, const hw::ClusterTopology& topology,
                                const PlacedStrategy& placed) {
  sim::CostModelStack stack(*pb.build.costs);
  if (pb.plan.any_change()) {
    stack.Wrap<RebalancedCostModel>(pb.build.problem, pb.plan);
  }
  if (topology.num_tiers() > 1) {
    stack.Wrap<TierScaledCostModel>(*pb.build.costs, topology, placed, pb.plan);
  }
  return stack;
}

// Worst-stage serialized DP sync, each stage priced on its hosting
// tier's fabric with its adopted parameter share. Reduces to
// TrainingCostModel::DpSyncTime() on a single tier with no re-partition.
Seconds SerializedDpSync(const hw::ClusterTopology& topology, const PlacedStrategy& placed,
                         const PlacedBuild& pb) {
  const hw::CommModel comm(topology, placed.placement);
  const hw::ParallelLayout layout = placed.strategy.layout();
  Seconds worst = 0;
  for (int stage = 0; stage < pb.build.problem.stages; ++stage) {
    const Bytes bytes = Scaled(pb.build.costs->StageParamBytes(stage),
                               pb.static_scale[static_cast<std::size_t>(stage)]);
    worst = std::max(worst, comm.DpGradientSyncAtStage(bytes, layout, stage));
  }
  return worst;
}

// Rank-weighted mean peak FLOPS of the occupied devices (the MFU
// denominator). Exact tier value for uniform placements.
double MeanPeakFlops(const hw::ClusterTopology& topology, const PlacedStrategy& placed) {
  if (placed.placement.uniform()) {
    return topology.tier(placed.placement.tier_of(0)).gpu.peak_flops;
  }
  const hw::ParallelLayout layout = placed.strategy.layout();
  const double group = layout.dp * layout.cp * layout.tp;
  double total = 0;
  for (int stage = 0; stage < placed.placement.stages(); ++stage) {
    total += group * topology.tier(placed.placement.tier_of(stage)).gpu.peak_flops;
  }
  return total / layout.ranks();
}

std::string OomNote(const hw::ClusterTopology& topology, const PlacedStrategy& placed,
                    int stage, Bytes peak, Bytes stage_total) {
  const hw::DeviceTier& tier = topology.tier(placed.placement.tier_of(stage));
  if (topology.num_tiers() < 2) {
    return StrFormat("OOM: peak %s > usable %s", FormatBytes(peak).c_str(),
                     FormatBytes(tier.gpu.usable_memory()).c_str());
  }
  return StrFormat("OOM on stage %d (%s): peak %s > usable %s", stage, tier.name.c_str(),
                   FormatBytes(stage_total).c_str(),
                   FormatBytes(tier.gpu.usable_memory()).c_str());
}

// The one result assembly both pricers share: DP sync, iteration time,
// per-stage memory on the hosting tier with the ZBV-capped floor, the OOM
// verdict, and MFU. `measured` is the table replay, or the engine run's
// summary in the same terms; `mitigation_scale` is the per-stage layer
// share of an adopted straggler mitigation (empty when none was adopted).
// Timeline, schedule and mitigation fields are left to the caller.
IterationResult Assemble(const model::TransformerConfig& config, const PlacedStrategy& placed,
                         const hw::ClusterTopology& topology, int global_batch,
                         const IterationOptions& options, const PlacedBuild& pb,
                         const TablePrice& measured,
                         const std::vector<double>& mitigation_scale = {}) {
  const Strategy& strategy = placed.strategy;
  const TrainingCostModel& costs = *pb.build.costs;
  IterationResult result;
  result.strategy = strategy;
  result.micros = pb.build.micros;
  result.pipeline_time = measured.makespan;
  result.dp.overlapped = options.dp_overlap;
  if (options.dp_overlap) {
    // The buckets were scheduled against the timeline; only the tail
    // past the makespan is paid.
    result.dp.serialized = measured.dp_serialized;
    result.dp.hidden = measured.dp_hidden;
    result.dp.exposed = measured.dp_exposed;
  } else {
    // Monolithic sync after the flush: everything is exposed.
    result.dp.serialized = SerializedDpSync(topology, placed, pb);
    result.dp.exposed = result.dp.serialized;
  }
  result.dp_sync_time = result.dp.exposed;
  result.iteration_time = measured.makespan + result.dp_sync_time + options.optimizer_step;
  result.bubble_ratio = measured.bubble_ratio;
  result.peak_activation = measured.peak_activation;
  result.checkpoint_shard = costs.CheckpointShardBytes();
  result.checkpoint_state = costs.CheckpointStateBytes();

  // The capped ZBV generator's accounting releases a forward's
  // activations at its B, but its W ops are deferred (kFillWhole) and the
  // memory is really held until each W runs, so the measured peak carries
  // an ~A/2 artifact. Floor every stage at the construction's honest
  // bound, 1F1B parity (ZbvMaxRetainedForwards chunk-forwards, scaled by
  // the stage's layer share), so memory feasibility cannot be fooled.
  const bool floored = strategy.method == Method::kZbvCapped;
  const Bytes honest =
      floored ? static_cast<Bytes>(sched::ZbvMaxRetainedForwards(strategy.pp, result.micros)) *
                    costs.PerForwardActivationBytes()
              : 0;
  int oom_stage = -1;
  Bytes oom_total = 0;
  for (int stage = 0; stage < pb.build.problem.stages; ++stage) {
    const std::size_t s = static_cast<std::size_t>(stage);
    const Bytes stage_static = Scaled(costs.StaticMemory(stage), pb.static_scale[s]);
    // An adopted mitigation re-partitions layers again: the run holds its
    // share of the static memory, while static_memory keeps reporting the
    // planned split.
    const Bytes held_static =
        mitigation_scale.empty()
            ? stage_static
            : Scaled(costs.StaticMemory(stage), pb.static_scale[s] * mitigation_scale[s]);
    Bytes total = held_static + measured.stage_peak_activation[s];
    if (floored) {
      const Bytes floor = Scaled(honest, pb.static_scale[s]);
      result.peak_activation = std::max(result.peak_activation, floor);
      total = std::max(total, stage_static + floor);
    }
    result.static_memory = std::max(result.static_memory, stage_static);
    result.peak_memory = std::max(result.peak_memory, total);
    if (oom_stage < 0 &&
        total > topology.tier(placed.placement.tier_of(stage)).gpu.usable_memory()) {
      oom_stage = stage;
      oom_total = total;
    }
  }
  if (oom_stage >= 0) {
    result.note = OomNote(topology, placed, oom_stage, result.peak_memory, oom_total);
  } else {
    result.feasible = true;
    result.note = "ok";
  }

  const std::int64_t tokens = static_cast<std::int64_t>(global_batch) * config.seq_len;
  result.per_gpu_flops = model::TrainingFlops(config, tokens) /
                         (result.iteration_time * static_cast<double>(strategy.layout().ranks()));
  result.mfu = result.per_gpu_flops / MeanPeakFlops(topology, placed);
  return result;
}

// The engine run of a candidate, with SimulateIteration's fault-plan,
// noise and straggler-mitigation handling on single-tier topologies.
PlacedIterationResult SimulateOn(const model::TransformerConfig& config,
                                 const PlacedStrategy& placed,
                                 const hw::ClusterTopology& topology, int global_batch,
                                 const IterationOptions& options,
                                 const hw::ClusterSpec* exact_cover) {
  MEPIPE_CHECK(topology.num_tiers() == 1 ||
               (options.fault_plan.empty() && options.noise_sigma <= 0 &&
                !options.rebalance_stragglers))
      << "fault plans, noise and straggler mitigation need a single-tier topology";
  PlacedIterationResult out;
  out.placed = placed;
  out.result.strategy = placed.strategy;
  PlacedBuild pb = BuildPlaced(config, placed, topology, global_batch, options, exact_cover);
  if (!pb.build.feasible) {
    out.result.note = std::move(pb.build.note);
    return out;
  }
  const Strategy& strategy = placed.strategy;
  const sched::PipelineProblem& problem = pb.build.problem;
  sched::Schedule& schedule = pb.build.schedule;

  out.slowdown = pb.profile.slowdown;
  const int units_per_chunk =
      static_cast<int>(config.partition_units()) / problem.num_chunks();
  out.stage_units.assign(static_cast<std::size_t>(problem.stages), 0);
  for (int g = 0; g < problem.num_chunks(); ++g) {
    out.stage_units[static_cast<std::size_t>(problem.stage_of_chunk(g))] +=
        pb.plan.new_units.empty() ? units_per_chunk
                                  : pb.plan.new_units[static_cast<std::size_t>(g)];
  }

  sim::CostModelStack stack = PlacedCosts(pb, topology, placed);
  if (options.noise_sigma > 0) {
    stack.Noisy(options.noise_sigma, options.noise_seed);
  }
  sim::EngineOptions engine;
  engine.wgrad_mode = pb.build.wgrad_mode;
  engine.activation_budget = pb.build.activation_budget;
  engine.fault_plan = options.fault_plan;
  engine.dp_overlap = options.dp_overlap;
  engine.dp_link_shared = options.dp_overlap && topology.FabricShares(strategy.layout())
                                                    .Shares(hw::Dim::kData, hw::Dim::kPipeline);
  sim::SimResult sim = Simulate(schedule, stack.model(), engine);

  std::vector<double> mitigation_scale;
  const Seconds unmitigated_makespan = sim.makespan;
  if (options.rebalance_stragglers && !options.fault_plan.empty()) {
    // Straggler-aware rebalancing: estimate the per-stage slowdown,
    // re-partition layers / re-tune caps, and adopt the mitigated
    // schedule when it beats the unmitigated one under the same plan.
    MitigationOptions mitigation;
    mitigation.engine = engine;
    mitigation.rebalance.config = config;
    mitigation.rebalance.seq_len = config.seq_len / strategy.cp;
    mitigation.rebalance.slice_alignment = options.cost.slice_alignment;
    mitigation.rebalance.units_per_chunk = units_per_chunk;
    if (problem.slices > 1) {
      // Re-balance against the spans the cost model actually priced.
      mitigation.rebalance.base_spans =
          options.cost.balanced_slices
              ? model::AlignSlices(model::BalancedSlices(config, mitigation.rebalance.seq_len,
                                                         problem.slices),
                                   std::max<std::int64_t>(1, options.cost.slice_alignment))
              : model::UniformSlices(mitigation.rebalance.seq_len, problem.slices);
    }
    MitigationReport report =
        MitigateStragglers(schedule, stack.model(), *options.fault_plan, mitigation);
    if (report.mitigated_makespan < sim.makespan) {
      sim = std::move(report.mitigated);
      schedule = std::move(report.mitigated_schedule);
      for (int stage = 0; stage < problem.stages; ++stage) {
        mitigation_scale.push_back(report.plan.stage_unit_ratio(problem, stage));
      }
    }
  }

  TablePrice measured;
  measured.makespan = sim.makespan;
  measured.bubble_ratio = sim.bubble_ratio;
  measured.peak_activation = sim.peak_activation;
  for (const sim::StageMetrics& stage : sim.stages) {
    measured.stage_peak_activation.push_back(stage.peak_activation);
  }
  measured.dp_serialized = sim.dp.serialized;
  measured.dp_hidden = sim.dp.hidden;
  measured.dp_exposed = sim.dp.exposed;
  IterationResult& result = out.result;
  result =
      Assemble(config, placed, topology, global_batch, options, pb, measured, mitigation_scale);
  result.mitigation.rebalanced = !mitigation_scale.empty();
  result.mitigation.unmitigated_pipeline_time = unmitigated_makespan;
  if (!options.keep_timeline) {
    // Release the storage, not just the spans: callers such as the
    // planner hold every evaluated result until the query ends.
    std::vector<sim::OpSpan>().swap(sim.timeline);
  }
  result.sim = std::move(sim);
  if (options.keep_schedule) {
    result.schedule = std::move(schedule);
    result.activation_budget = std::move(engine.activation_budget);
  }
  out.dollars = PriceDollarCost(topology, placed, result.iteration_time,
                                WanEgressBytesPerIteration(config, placed, problem, topology));
  return out;
}

// The table replay of a candidate, served from and recorded in
// options.cache when one is attached.
PlacedSurrogateResult PriceOn(const model::TransformerConfig& config,
                              const PlacedStrategy& placed, const hw::ClusterTopology& topology,
                              int global_batch, const SurrogateOptions& options,
                              const hw::ClusterSpec* exact_cover) {
  const Strategy& strategy = placed.strategy;
  PlacedSurrogateResult out;
  out.placed = placed;
  // Egress depends on the problem shape alone, so a cache hit bills it
  // without a build.
  const Bytes egress = WanEgressBytesPerIteration(
      config, placed, ProblemFor(strategy, global_batch / std::max(1, strategy.dp)), topology);

  SurrogateKey key;
  if (options.cache != nullptr) {
    key = {strategy.method, strategy.pp, strategy.dp, strategy.cp, strategy.tp, strategy.vp,
           strategy.spp, strategy.recompute, global_batch,
           exact_cover != nullptr ? CostModelFingerprint(config, *exact_cover, options.iteration)
                                  : TopologyFingerprint(config, topology, options.iteration),
           exact_cover != nullptr ? 0 : placed.placement.Hash()};
    if (auto hit = options.cache->Lookup(key)) {
      hit->cache_hit = true;
      out.result = std::move(*hit);
      out.dollars = PriceDollarCost(topology, placed, out.result.iteration_time, egress);
      return out;
    }
  }

  PlacedBuild pb =
      BuildPlaced(config, placed, topology, global_batch, options.iteration, exact_cover);
  SurrogateResult& result = out.result;
  result.strategy = strategy;
  if (!pb.build.feasible) {
    result.note = std::move(pb.build.note);
  } else {
    const sim::CostModelStack stack = PlacedCosts(pb, topology, placed);
    TableOptions table;
    table.wgrad_mode = pb.build.wgrad_mode;
    table.activation_budget = pb.build.activation_budget;
    table.dp_overlap = options.iteration.dp_overlap;
    IterationResult assembled =
        Assemble(config, placed, topology, global_batch, options.iteration, pb,
                 PriceScheduleTable(pb.build.schedule, stack.model(), table));
    result.feasible = assembled.feasible;
    result.note = std::move(assembled.note);
    result.micros = assembled.micros;
    result.pipeline_time = assembled.pipeline_time;
    result.dp_sync_time = assembled.dp_sync_time;
    result.iteration_time = assembled.iteration_time;
    result.bubble_ratio = assembled.bubble_ratio;
    result.static_memory = assembled.static_memory;
    result.peak_activation = assembled.peak_activation;
    result.peak_memory = assembled.peak_memory;
    result.checkpoint_shard = assembled.checkpoint_shard;
  }
  if (options.cache != nullptr) {
    options.cache->Insert(key, result);
  }
  out.dollars = PriceDollarCost(topology, placed, result.iteration_time, egress);
  return out;
}

// A ClusterSpec request's placement: every stage on the one tier. Unlike
// StagePlacement::Uniform it accepts pp < 1, which BuildCandidate then
// rejects with its usual note.
hw::StagePlacement SingleTierPlacement(int pp) {
  return {std::vector<int>(static_cast<std::size_t>(std::max(0, pp)), 0)};
}

}  // namespace

PlacedIterationResult SimulatePlacedIteration(const model::TransformerConfig& config,
                                              const PlacedStrategy& placed,
                                              const hw::ClusterTopology& topology,
                                              int global_batch,
                                              const IterationOptions& options) {
  return SimulateOn(config, placed, topology, global_batch, options, nullptr);
}

PlacedSurrogateResult SurrogatePricePlaced(const model::TransformerConfig& config,
                                           const PlacedStrategy& placed,
                                           const hw::ClusterTopology& topology,
                                           int global_batch,
                                           const SurrogateOptions& options) {
  return PriceOn(config, placed, topology, global_batch, options, nullptr);
}

IterationResult SimulateIteration(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterSpec& cluster,
                                  int global_batch, const IterationOptions& options) {
  return SimulateOn(config, {strategy, SingleTierPlacement(strategy.pp)},
                    hw::SingleTierTopology(cluster), global_batch, options, &cluster)
      .result;
}

SurrogateResult SurrogatePrice(const model::TransformerConfig& config,
                               const Strategy& strategy, const hw::ClusterSpec& cluster,
                               int global_batch, const SurrogateOptions& options) {
  return PriceOn(config, {strategy, SingleTierPlacement(strategy.pp)},
                 hw::SingleTierTopology(cluster), global_batch, options, &cluster)
      .result;
}

}  // namespace mepipe::core
