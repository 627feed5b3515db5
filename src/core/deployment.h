// Deployment economics of cheap-accelerator clusters — the §9
// discussion, made computable:
//  - hardware-failure overhead from MTBF and checkpoint/recovery costs
//    ("we estimate the cost of hardware failures is less than 5% for a
//    thousand RTX 4090 GPUs");
//  - power/operating cost and the acquisition-vs-electricity parity
//    horizon ("approximately 24 years for A100 clusters to achieve cost
//    parity");
//  - overall cost-effectiveness combining both.
#ifndef MEPIPE_CORE_DEPLOYMENT_H_
#define MEPIPE_CORE_DEPLOYMENT_H_

#include "common/units.h"
#include "hw/cluster.h"

namespace mepipe::core {

struct ReliabilityOptions {
  // Mean time between failures for a reference fleet (§9 cites ~12 h for
  // one thousand A100s). Scales inversely with GPU count.
  Seconds mtbf_per_1000_gpus = 12.0 * 3600.0;
  // Checkpoint-restore time with memory-based checkpointing (§9 cites
  // "a few minutes").
  Seconds recovery_time = 3.0 * 60.0;
  // Interval between checkpoints; work since the last one is lost.
  Seconds checkpoint_interval = 10.0 * 60.0;
  // Cost of writing one checkpoint (pause or bandwidth steal).
  Seconds checkpoint_write_cost = 10.0;

  // Mean time between failures of a `gpus`-accelerator cluster.
  Seconds ClusterMtbf(int gpus) const {
    return mtbf_per_1000_gpus * 1000.0 / static_cast<double>(gpus);
  }
};

// Expected fraction of cluster time lost to failures + checkpointing for
// a cluster of `gpus` accelerators. §9's claim: < 5% at 1000 GPUs.
double FailureOverheadFraction(int gpus, const ReliabilityOptions& options = {});

// Cost model for writing one checkpoint with §9's memory-based
// checkpointing: every rank streams its shard to the checkpoint store in
// parallel, so the stall is governed by the worst (largest) per-rank
// shard, plus a fixed quiesce/consistency barrier.
struct CheckpointCostOptions {
  // Per-rank bandwidth to the checkpoint store (host DRAM / NIC bound on
  // commodity nodes).
  double write_bandwidth_bytes_per_s = 3.0e9;
  // Quiesce + consistency-barrier overhead paid once per checkpoint.
  Seconds barrier = 1.0;
};

// Stall of one checkpoint write whose largest per-rank shard is
// `worst_shard_bytes` (see TrainingCostModel::CheckpointShardBytes).
// Throws CheckError on non-positive bandwidth or negative sizes.
Seconds CheckpointWriteCost(Bytes worst_shard_bytes, const CheckpointCostOptions& options = {});

struct OperatingCostOptions {
  double electricity_usd_per_kwh = 0.10;  // §9: industrial rate, Feb 2025
  // Non-GPU server power (CPUs, fans, NICs) per 8-GPU node, watts.
  double host_power_w = 800;
  // Power usage effectiveness of the facility.
  double pue = 1.3;
};

// Electric operating cost of running the whole cluster for `duration`.
double OperatingCostUsd(const hw::ClusterSpec& cluster, Seconds duration,
                        const OperatingCostOptions& options = {});

// Years of continuous operation after which the cheaper-to-buy cluster's
// higher power bill erases its acquisition advantage against the
// reference cluster, assuming both deliver the same training throughput.
// Returns +infinity when the cheaper cluster also consumes less power,
// and 0 when there is no acquisition advantage to erase (the
// power-hungry cluster is not actually cheaper to buy — parity holds
// from day one, never a negative horizon).
// §9 computes ≈ 24 years for 2×4090-per-A100-equivalent fleets.
double CostParityYears(const hw::ClusterSpec& cheap, const hw::ClusterSpec& reference,
                       const OperatingCostOptions& options = {});

// Total cost of ownership over `years`, acquisition + electricity.
double TotalCostUsd(const hw::ClusterSpec& cluster, double years,
                    const OperatingCostOptions& options = {});

// ---- Rental economics of tiered fleets --------------------------------
//
// The acquisition/electricity math above prices *owning* a cluster; the
// heterogeneous-fleet planner (core/fleet) prices *renting* one. Both
// views meet in the Table 9 / §9 cost benches, which now report each
// device's rental rate next to its ownership cost.

// Rental rate of the whole fleet: every GPU of every tier at the tier's
// $/GPU-hour.
double FleetHourlyCostUsd(const hw::ClusterTopology& topology);

// Rental rate of only the ranks a placed layout occupies: dp·cp·tp ranks
// per stage, each at its hosting tier's rate. This is the
// fleet_usd_per_hour term of core::DollarCostBreakdown.
double PlacementHourlyCostUsd(const hw::ClusterTopology& topology,
                              const hw::StagePlacement& placement,
                              const hw::ParallelLayout& layout);

// WAN egress dollars for `bytes`, billed per decimal GB (cloud style).
double EgressCostUsd(Bytes bytes, double usd_per_gb);

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_DEPLOYMENT_H_
