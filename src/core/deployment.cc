#include "core/deployment.h"

#include <limits>

#include "common/check.h"

namespace mepipe::core {

double FailureOverheadFraction(int gpus, const ReliabilityOptions& options) {
  MEPIPE_CHECK_GT(gpus, 0);
  MEPIPE_CHECK_GT(options.mtbf_per_1000_gpus, 0.0);
  MEPIPE_CHECK_GT(options.checkpoint_interval, 0.0);
  const double mtbf = options.ClusterMtbf(gpus);
  // Each failure costs recovery plus on average half a checkpoint
  // interval of lost work; each interval costs one checkpoint write.
  const double per_failure = options.recovery_time + options.checkpoint_interval / 2.0;
  const double failure_fraction = per_failure / mtbf;
  const double checkpoint_fraction =
      options.checkpoint_write_cost / options.checkpoint_interval;
  return failure_fraction + checkpoint_fraction;
}

namespace {

double ClusterPowerWatts(const hw::ClusterSpec& cluster, const OperatingCostOptions& options) {
  const double gpu_power =
      static_cast<double>(cluster.world_size()) * cluster.gpu.board_power_w;
  const double host_power = static_cast<double>(cluster.nodes) * options.host_power_w;
  return (gpu_power + host_power) * options.pue;
}

double AcquisitionUsd(const hw::ClusterSpec& cluster) {
  return static_cast<double>(cluster.nodes) * cluster.gpu.server_price_usd;
}

}  // namespace

double OperatingCostUsd(const hw::ClusterSpec& cluster, Seconds duration,
                        const OperatingCostOptions& options) {
  const double kwh = ClusterPowerWatts(cluster, options) / 1000.0 * duration / 3600.0;
  return kwh * options.electricity_usd_per_kwh;
}

double CostParityYears(const hw::ClusterSpec& cheap, const hw::ClusterSpec& reference,
                       const OperatingCostOptions& options) {
  const double acquisition_gap = AcquisitionUsd(reference) - AcquisitionUsd(cheap);
  const double seconds_per_year = 365.0 * 24.0 * 3600.0;
  const double power_gap_per_year =
      OperatingCostUsd(cheap, seconds_per_year, options) -
      OperatingCostUsd(reference, seconds_per_year, options);
  if (power_gap_per_year <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  // No acquisition advantage to erase: the power-hungry cluster is not
  // actually cheaper to buy, so parity holds from day one. Clamp instead
  // of returning a (meaningless) negative horizon.
  if (acquisition_gap <= 0.0) {
    return 0.0;
  }
  return acquisition_gap / power_gap_per_year;
}

Seconds CheckpointWriteCost(Bytes worst_shard_bytes, const CheckpointCostOptions& options) {
  MEPIPE_CHECK_GE(worst_shard_bytes, 0);
  MEPIPE_CHECK_GT(options.write_bandwidth_bytes_per_s, 0.0);
  MEPIPE_CHECK_GE(options.barrier, 0.0);
  return options.barrier +
         static_cast<double>(worst_shard_bytes) / options.write_bandwidth_bytes_per_s;
}

double TotalCostUsd(const hw::ClusterSpec& cluster, double years,
                    const OperatingCostOptions& options) {
  const double seconds = years * 365.0 * 24.0 * 3600.0;
  return AcquisitionUsd(cluster) + OperatingCostUsd(cluster, seconds, options);
}

double FleetHourlyCostUsd(const hw::ClusterTopology& topology) {
  double total = 0;
  for (const hw::DeviceTier& tier : topology.tiers) {
    total += static_cast<double>(tier.world_size()) * tier.usd_per_gpu_hour;
  }
  return total;
}

double PlacementHourlyCostUsd(const hw::ClusterTopology& topology,
                              const hw::StagePlacement& placement,
                              const hw::ParallelLayout& layout) {
  const double group = static_cast<double>(layout.dp) * layout.cp * layout.tp;
  double total = 0;
  for (int stage = 0; stage < placement.stages(); ++stage) {
    total += group * topology.tier(placement.tier_of(stage)).usd_per_gpu_hour;
  }
  return total;
}

double EgressCostUsd(Bytes bytes, double usd_per_gb) {
  MEPIPE_CHECK_GE(bytes, 0);
  MEPIPE_CHECK_GE(usd_per_gb, 0.0);
  return static_cast<double>(bytes) / 1e9 * usd_per_gb;
}

}  // namespace mepipe::core
