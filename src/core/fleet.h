// Heterogeneous-fleet planning (ROADMAP item 4): stage→tier placement
// over a hw::ClusterTopology, dollar-cost pricing, and the cost-model
// wrapper that re-prices one candidate for a concrete placement.
//
// The pipeline of a placed candidate is built on a *reference
// sub-cluster* of the fastest tier sized to the layout's rank count, so
// the homogeneous machinery (BuildCandidate, TrainingCostModel, the
// schedule generators) applies unchanged. Heterogeneity is then layered
// on top:
//  - Static tier speed ratios become a per-stage StageProfile
//    (PlacementSlowdowns) fed through core/rebalance's exact
//    PartitionUnitsBySpeed, so slow tiers host fewer layers and the
//    program order is regenerated with
//    sched::GeneratorOptions::stage_time_scale — the same estimate →
//    rebalance → regenerate idiom MitigateStragglers uses for dynamic
//    stragglers.
//  - TierScaledCostModel (a sim::WrappingCostModel) dilates each
//    chunk's compute by its stage's tier slowdown, re-prices pipeline
//    boundary transfers through hw::CommModel::PipelineP2pAcross (WAN
//    when the boundary crosses tiers), and re-prices DP gradient
//    buckets on the hosting tier's fabric.
//  - Memory feasibility is checked per stage against the *hosting*
//    tier's usable memory, with static memory scaled by the adopted
//    layer share.
// A single-tier topology with a uniform placement takes none of these
// paths. This is the only pricing path: SimulateIteration and
// SurrogatePrice are its single-tier case (defined in fleet.cc), and the
// DES and the surrogate share one result assembly — DP sync, iteration
// time, per-stage memory and OOM verdict, the ZBV-capped memory floor,
// MFU, timeline and schedule retention.
#ifndef MEPIPE_CORE_FLEET_H_
#define MEPIPE_CORE_FLEET_H_

#include <string>
#include <vector>

#include "core/iteration.h"
#include "core/rebalance.h"
#include "core/surrogate.h"
#include "hw/cluster.h"
#include "hw/comm_model.h"

namespace mepipe::core {

// Per-stage compute slowdown implied by the placement: the fastest
// tier's sustained matmul rate over the hosting tier's (each >= 1).
StageProfile PlacementSlowdowns(const hw::ClusterTopology& topology,
                                const hw::StagePlacement& placement);

// Deterministic placement candidates for a pp-stage pipeline: every
// uniform single-tier placement (tier index ascending), then every
// contiguous two-tier split — k stages on tier a followed by pp-k on
// tier b, for each ordered pair (a, b), k ascending. No capacity
// filtering; callers gate with ParallelLayout::Validate.
std::vector<hw::StagePlacement> EnumeratePlacements(const hw::ClusterTopology& topology,
                                                    int pp);

// A strategy pinned to a concrete stage→tier assignment.
struct PlacedStrategy {
  Strategy strategy;
  hw::StagePlacement placement;

  std::string ToString() const;  // "svpp pp8 dp2 ... @ t0x4|t1x4"
};

// The kDollarCost objective's decomposition (core/deployment pairs this
// with its acquisition/electricity parity math).
struct DollarCostBreakdown {
  double fleet_usd_per_hour = 0;        // occupied ranks × tier rental rate
  Bytes wan_egress_bytes = 0;           // per iteration, all WAN crossings
  double egress_usd_per_iteration = 0;  // billed per GB at each crossing
  double rental_usd_per_iteration = 0;  // fleet $/hr × iteration time
  double usd_per_iteration = 0;         // rental + egress
};

// Activation/gradient traffic leaving a region per iteration: for each
// chunk boundary whose two stages sit on tiers joined by a WAN link,
// global_batch samples × seq_len tokens × boundary bytes/token, in each
// direction (forward activations + backward gradients). TP replication
// of the boundary tensor is not billed (tp=1 on consumer fleets).
Bytes WanEgressBytesPerIteration(const model::TransformerConfig& config,
                                 const PlacedStrategy& placed,
                                 const sched::PipelineProblem& problem,
                                 const hw::ClusterTopology& topology);

DollarCostBreakdown PriceDollarCost(const hw::ClusterTopology& topology,
                                    const PlacedStrategy& placed, Seconds iteration_time,
                                    Bytes wan_egress_bytes,
                                    double egress_usd_per_gb_override = -1.0);

// Re-prices a homogeneous candidate (built on the fastest tier's
// reference sub-cluster) for a concrete placement. Wrap it *above*
// RebalancedCostModel so compute dilation applies to the re-partitioned
// layer shares:
//   stack.Wrap<RebalancedCostModel>(problem, plan)
//        .Wrap<TierScaledCostModel>(priced, topology, placed, plan);
class TierScaledCostModel : public sim::WrappingCostModel {
 public:
  // `priced` is the base TrainingCostModel (for boundary/param volumes —
  // the wrapped `base` may already be decorated); `plan` supplies the
  // per-chunk layer-share ratios (pass a default RebalancePlan for the
  // un-repartitioned case). Holds `base` and `priced` by reference.
  TierScaledCostModel(const sim::CostModel& base, const TrainingCostModel& priced,
                      const hw::ClusterTopology& topology, const PlacedStrategy& placed,
                      const RebalancePlan& plan);

  Seconds ComputeTime(const sched::OpId& op) const override;
  Seconds TransferTime(const sched::OpId& producer) const override;
  Seconds DpSyncTime(const sched::OpId& bucket) const override;

 private:
  const TrainingCostModel& priced_;
  hw::CommModel comm_;  // topology + placement aware
  hw::ParallelLayout layout_;
  sched::PipelineProblem problem_;
  std::vector<double> stage_slowdown_;  // per stage
  std::vector<double> chunk_scale_;     // per chunk layer-share ratio
};

// One placed candidate, fully priced. `result` carries the engine- (or
// table-) grade timing/memory verdict; `dollars` the rental + egress
// economics the kDollarCost objective ranks on.
struct PlacedIterationResult {
  PlacedStrategy placed;
  IterationResult result;
  DollarCostBreakdown dollars;
  std::vector<double> slowdown;  // per stage, from PlacementSlowdowns
  std::vector<int> stage_units;  // adopted per-stage layer split
};

struct PlacedSurrogateResult {
  PlacedStrategy placed;
  SurrogateResult result;
  DollarCostBreakdown dollars;
};

// DES-grade pricing of a placed candidate. On a single-tier topology the
// fault plan, noise and straggler rebalancing in `options` run exactly as
// SimulateIteration runs them. A multi-tier topology folds static
// heterogeneity into the candidate itself and rejects all three with a
// CheckError.
PlacedIterationResult SimulatePlacedIteration(const model::TransformerConfig& config,
                                              const PlacedStrategy& placed,
                                              const hw::ClusterTopology& topology,
                                              int global_batch,
                                              const IterationOptions& options = {});

// Analytic counterpart (tabular critical-path pass), cacheable through
// SurrogateOptions::cache — keys carry TopologyFingerprint and the
// placement hash so fleet prices never collide with homogeneous ones.
PlacedSurrogateResult SurrogatePricePlaced(const model::TransformerConfig& config,
                                           const PlacedStrategy& placed,
                                           const hw::ClusterTopology& topology,
                                           int global_batch,
                                           const SurrogateOptions& options = {});

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_FLEET_H_
