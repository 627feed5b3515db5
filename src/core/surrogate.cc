#include "core/surrogate.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "core/deployment.h"

namespace mepipe::core {
namespace {

// ---- Fingerprint hashing ---------------------------------------------------

constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Digest {
  std::uint64_t state = 0x6d65706970655f73ULL;  // "mepipe_s"

  void Mix(std::uint64_t value) { state = SplitMix64(state ^ value); }
  void Mix(std::int64_t value) { Mix(static_cast<std::uint64_t>(value)); }
  void Mix(int value) { Mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  void Mix(bool value) { Mix(static_cast<std::uint64_t>(value ? 1 : 2)); }
  void Mix(double value) { Mix(std::bit_cast<std::uint64_t>(value)); }
  void Mix(const std::string& value) {
    // FNV-1a, implementation-independent (std::hash is not pinned).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : value) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    Mix(h);
  }
};

void MixLink(Digest& digest, const hw::LinkSpec& link) {
  digest.Mix(link.name);
  digest.Mix(link.bandwidth);
  digest.Mix(link.latency);
  digest.Mix(link.through_host);
}

}  // namespace

std::uint64_t TopologyFingerprint(const model::TransformerConfig& config,
                                  const hw::ClusterTopology& topology,
                                  const IterationOptions& options) {
  Digest digest;
  // Model architecture.
  digest.Mix(config.name);
  digest.Mix(config.hidden);
  digest.Mix(config.ffn_hidden);
  digest.Mix(config.layers);
  digest.Mix(config.heads);
  digest.Mix(config.kv_heads);
  digest.Mix(config.vocab);
  digest.Mix(config.seq_len);
  // TrainingCostOptions.
  digest.Mix(options.cost.balanced_slices);
  digest.Mix(options.cost.slice_alignment);
  // Pricing-relevant iteration knobs (faults/noise/rebalance excluded —
  // the surrogate prices the clean run).
  digest.Mix(static_cast<int>(options.wgrad_mode));
  digest.Mix(options.svpp_inflight);
  digest.Mix(options.dp_overlap);
  // Every tier (GPU, shape, links, rental rate) and the inter-tier links.
  digest.Mix(topology.num_tiers());
  for (const hw::DeviceTier& tier : topology.tiers) {
    digest.Mix(tier.name);
    digest.Mix(tier.region);
    digest.Mix(tier.nodes);
    digest.Mix(tier.gpus_per_node);
    digest.Mix(tier.usd_per_gpu_hour);
    digest.Mix(tier.gpu.name);
    digest.Mix(tier.gpu.memory_capacity);
    digest.Mix(tier.gpu.memory_reserved);
    digest.Mix(tier.gpu.peak_flops);
    digest.Mix(tier.gpu.matmul_derate);
    MixLink(digest, tier.intra_node);
    MixLink(digest, tier.inter_node);
  }
  for (const hw::TierLink& link : topology.tier_links) {
    MixLink(digest, link.link);
    digest.Mix(link.usd_per_gb_egress);
    digest.Mix(link.wan);
  }
  return digest.state;
}

std::uint64_t CostModelFingerprint(const model::TransformerConfig& config,
                                   const hw::ClusterSpec& cluster,
                                   const IterationOptions& options) {
  return TopologyFingerprint(config, hw::SingleTierTopology(cluster), options);
}

std::size_t SurrogateKeyHash::operator()(const SurrogateKey& key) const {
  Digest digest;
  digest.Mix(static_cast<int>(key.method));
  digest.Mix(key.pp);
  digest.Mix(key.dp);
  digest.Mix(key.cp);
  digest.Mix(key.tp);
  digest.Mix(key.vp);
  digest.Mix(key.spp);
  digest.Mix(key.recompute);
  digest.Mix(key.global_batch);
  digest.Mix(key.fingerprint);
  digest.Mix(key.placement);
  return static_cast<std::size_t>(digest.state);
}

std::size_t SurrogateCache::IntervalKeyHash::operator()(const IntervalKey& key) const {
  Digest digest;
  digest.Mix(key.time_bits);
  digest.Mix(key.write_bits);
  digest.Mix(key.mtbf_bits);
  digest.Mix(key.recovery_bits);
  digest.Mix(key.target_bits);
  digest.Mix(key.iterations);
  digest.Mix(key.seed);
  digest.Mix(key.gpus);
  digest.Mix(key.dp_replicas);
  digest.Mix(key.scope);
  digest.Mix(key.min_bits);
  digest.Mix(key.max_bits);
  digest.Mix(key.coarse_points);
  digest.Mix(key.golden_iterations);
  return static_cast<std::size_t>(digest.state);
}

std::optional<SurrogateResult> SurrogateCache::Lookup(const SurrogateKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return std::nullopt;
}

void SurrogateCache::Insert(const SurrogateKey& key, const SurrogateResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.insert_or_assign(key, result);
}

CheckpointIntervalSolution SurrogateCache::IntervalSolve(
    Seconds iteration_time, const ResilienceOptions& base,
    const CheckpointIntervalOptions& options) {
  IntervalKey key;
  key.time_bits = std::bit_cast<std::uint64_t>(iteration_time);
  key.write_bits = std::bit_cast<std::uint64_t>(base.reliability.checkpoint_write_cost);
  key.mtbf_bits = std::bit_cast<std::uint64_t>(base.reliability.mtbf_per_1000_gpus);
  key.recovery_bits = std::bit_cast<std::uint64_t>(base.reliability.recovery_time);
  key.target_bits = std::bit_cast<std::uint64_t>(base.target_useful_time);
  key.iterations = base.iterations;
  key.seed = base.seed;
  key.gpus = base.gpus;
  key.dp_replicas = base.dp_replicas;
  key.scope = static_cast<int>(base.restart_scope);
  key.min_bits = std::bit_cast<std::uint64_t>(options.min_interval);
  key.max_bits = std::bit_cast<std::uint64_t>(options.max_interval);
  key.coarse_points = options.coarse_points;
  key.golden_iterations = options.golden_iterations;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = intervals_.find(key); it != intervals_.end()) {
      ++stats_.interval_hits;
      return it->second;
    }
    ++stats_.interval_misses;
  }
  // Solve outside the lock: the solver is deterministic, so a concurrent
  // duplicate computes the identical value and the second insert is a
  // no-op.
  const CheckpointIntervalSolution solution =
      OptimalCheckpointInterval(iteration_time, base, options);
  std::lock_guard<std::mutex> lock(mu_);
  intervals_.emplace(key, solution);
  return solution;
}

SurrogateCache::Stats SurrogateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SurrogateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

SurrogateGoodput ClosedFormGoodput(Seconds iteration_time, Bytes checkpoint_shard,
                                   const ResilienceOptions& resilience,
                                   const CheckpointCostOptions& checkpoint_cost) {
  MEPIPE_CHECK_GT(iteration_time, 0) << "goodput needs a positive iteration time";
  MEPIPE_CHECK_GT(resilience.gpus, 0) << "goodput needs a positive fleet size";
  SurrogateGoodput out;
  out.checkpoint_write_cost = CheckpointWriteCost(checkpoint_shard, checkpoint_cost);
  const double w = out.checkpoint_write_cost;
  const Seconds mtbf = resilience.reliability.ClusterMtbf(resilience.gpus);
  MEPIPE_CHECK_GT(mtbf, 0) << "goodput needs a positive MTBF";
  // Young's first-order optimum and Daly's second-order refinement
  // (the same closed forms OptimalCheckpointInterval seeds its
  // Monte-Carlo scan with).
  const double young = std::sqrt(2.0 * w * mtbf);
  Seconds interval;
  if (w < 2.0 * mtbf) {
    const double ratio = w / (2.0 * mtbf);
    interval = young * (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) - w;
  } else {
    interval = mtbf;
  }
  out.checkpoint_interval = std::max(interval, w);
  // Expected overhead: steady-state write cost plus per-failure recovery
  // and lost work. Full-pipeline restarts replay half an interval on
  // average; replica-local restarts replay only the interrupted
  // iteration while survivors idle.
  Seconds lost = out.checkpoint_interval / 2.0;
  if (resilience.restart_scope == sim::RestartScope::kDpReplicaLocal &&
      resilience.dp_replicas > 1) {
    lost = std::min(lost, iteration_time / 2.0);
  }
  const double overhead = w / out.checkpoint_interval +
                          (resilience.reliability.recovery_time + lost) / mtbf;
  out.goodput = std::clamp(1.0 - overhead, 1e-6, 1.0);
  out.effective_iteration_time = iteration_time / out.goodput;
  return out;
}

std::optional<Seconds> SurrogateLowerBound(const model::TransformerConfig& config,
                                           const Strategy& strategy,
                                           const hw::ClusterSpec& cluster, int global_batch,
                                           const IterationOptions& options) {
  if (strategy.dp <= 0 || global_batch % strategy.dp != 0) {
    return std::nullopt;
  }
  const sched::PipelineProblem problem = ProblemFor(strategy, global_batch / strategy.dp);
  try {
    problem.Validate();
    const TrainingCostModel costs(config, strategy, cluster, problem, options.cost);

    // Per-stage straggler windows from the plan (sorted, disjoint per
    // stage — FaultPlan::Validate enforces that). Fail-stops and link
    // faults only add time and are ignored: the bound stays sound.
    std::vector<std::vector<const sim::StragglerFault*>> windows(
        static_cast<std::size_t>(problem.stages));
    if (options.fault_plan) {
      for (const sim::StragglerFault& fault : options.fault_plan->stragglers) {
        if (fault.stage >= 0 && fault.stage < problem.stages) {
          windows[static_cast<std::size_t>(fault.stage)].push_back(&fault);
        }
      }
      for (auto& stage_windows : windows) {
        std::sort(stage_windows.begin(), stage_windows.end(),
                  [](const auto* a, const auto* b) { return a->begin < b->begin; });
      }
    }

    Seconds bound = 0;
    for (int stage = 0; stage < problem.stages; ++stage) {
      Seconds busy = 0;
      for (int chunk = 0; chunk < problem.num_chunks(); ++chunk) {
        if (problem.stage_of_chunk(chunk) != stage) {
          continue;
        }
        for (int slice = 0; slice < problem.slices; ++slice) {
          busy += costs.ComputeTime({sched::OpKind::kForward, 0, slice, chunk});
          busy += costs.ComputeTime({sched::OpKind::kBackward, 0, slice, chunk});
          if (problem.split_backward) {
            busy += costs.ComputeTime({sched::OpKind::kWeightGrad, 0, slice, chunk});
          }
        }
      }
      busy *= problem.micros;
      // Earliest instant a stage working gap-free from t=0 finishes
      // `busy` seconds of clean work, with straggler windows dilating
      // progress by their slowdown factor.
      Seconds t = 0;
      Seconds remaining = busy;
      for (const sim::StragglerFault* fault : windows[static_cast<std::size_t>(stage)]) {
        if (remaining <= 0) {
          break;
        }
        if (fault->begin > t) {
          const Seconds clean = fault->begin - t;
          if (remaining <= clean) {
            t += remaining;
            remaining = 0;
            break;
          }
          remaining -= clean;
          t = fault->begin;
        }
        const Seconds window = std::max(0.0, fault->end - t);
        const Seconds capacity = window / std::max(fault->slowdown, 1.0);
        if (remaining <= capacity) {
          t += remaining * std::max(fault->slowdown, 1.0);
          remaining = 0;
          break;
        }
        remaining -= capacity;
        t = std::max(t, fault->end);
      }
      t += std::max(0.0, remaining);
      bound = std::max(bound, t);
    }
    // Overlapped DP sync can hide in bubbles entirely, so only the
    // serialized sync adds to the bound.
    const Seconds dp_sync = options.dp_overlap ? 0.0 : costs.DpSyncTime();
    return bound + dp_sync + kOptimizerStep;
  } catch (const CheckError&) {
    return std::nullopt;  // let the full evaluation explain why
  }
}

}  // namespace mepipe::core
