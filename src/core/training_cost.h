// TrainingCostModel: maps schedule ops to durations and memory footprints
// for a concrete (model, parallel strategy, cluster) triple. This is the
// simulator-facing analogue of the paper's profiler component (§6): where
// the real system measures per-op times on the device, we derive them
// from the FLOPs model, the operator-efficiency curves, and the link
// model.
#ifndef MEPIPE_CORE_TRAINING_COST_H_
#define MEPIPE_CORE_TRAINING_COST_H_

#include <string>
#include <vector>

#include "core/analytic.h"
#include "hw/cluster.h"
#include "hw/comm_model.h"
#include "hw/efficiency.h"
#include "model/flops.h"
#include "model/memory.h"
#include "model/transformer.h"
#include "sched/op.h"
#include "sim/cost_model.h"

namespace mepipe::core {

// A complete parallel training strategy — the tuples of Tables 5-8.
struct Strategy {
  Method method = Method::kSvpp;
  int pp = 1;   // pipeline stages
  int dp = 1;   // data-parallel replicas (with ZeRO-1)
  int cp = 1;   // context-parallel ranks (splits samples across GPUs)
  int tp = 1;   // tensor-parallel ranks (A100 comparison only)
  int vp = 1;   // virtual chunks per stage
  int spp = 1;  // sequence-pipeline slices per sample (consumes no ranks)
  bool recompute = false;

  hw::ParallelLayout layout() const { return {pp, dp, cp, tp}; }
  std::string ToString() const;
};

struct TrainingCostOptions {
  hw::EfficiencyModel efficiency;
  // Fixed per-op host/launch overhead (framework dispatch, NCCL enqueue).
  Seconds op_overhead = Microseconds(60);
  model::MemoryModelOptions memory;
  // Slice samples non-uniformly so per-slice forward cost is balanced
  // (TeraPipe's DP partitioning, §5) instead of uniformly. Pays kernel
  // shape efficiency on the odd-sized slices; wins at very long context.
  bool balanced_slices = false;
  // Round non-uniform slice boundaries to this many tokens (GEMM /
  // FlashAttention shape friendliness).
  std::int64_t slice_alignment = 1;
};

class TrainingCostModel : public sim::CostModel {
 public:
  // `problem` must describe the same (pp, vp, spp) as `strategy`; the
  // micro count is free. Throws CheckError on inconsistent or unsupported
  // combinations (cp>1 with spp>1, recompute with split backward, model
  // units not divisible by pp·vp).
  TrainingCostModel(const model::TransformerConfig& config, const Strategy& strategy,
                    const hw::ClusterSpec& cluster, const sched::PipelineProblem& problem,
                    const TrainingCostOptions& options = {});

  // --- sim::CostModel ---
  Seconds ComputeTime(const sched::OpId& op) const override;
  Seconds TransferTime(const sched::OpId& producer) const override;
  Bytes ActivationBytes(const sched::OpId& forward) const override;
  Bytes ActGradBytes(const sched::OpId& backward) const override;
  int WeightGradGemmCount(const sched::OpId& wgrad) const override;
  // One chunk's gradient bucket: ZeRO-1 reduce-scatter + all-gather of
  // that chunk's parameters over the dp·cp group. This is what the
  // engine overlaps with the pipeline (EngineOptions::dp_overlap).
  Seconds DpSyncTime(const sched::OpId& bucket) const override;

  // --- memory / comm summaries used by the iteration runner ---
  // Worst-stage static + temporary memory.
  Bytes MaxStaticMemory() const;
  // Per-stage static + temporary memory.
  Bytes StaticMemory(int stage) const;
  // Worst-stage data-parallel gradient/optimizer synchronization time as
  // one monolithic collective (the serialized-after-flush baseline).
  // Bucketing pays the per-collective latency once per chunk, so the
  // summed bucket costs of a stage are >= this.
  Seconds DpSyncTime() const;
  // Activation bytes retained by a single forward pass on the
  // worst (most-loaded) chunk — the unit the §4.5 variant selector
  // divides the remaining memory budget by.
  Bytes PerForwardActivationBytes() const;
  // Checkpoint sizing for §9's memory-based checkpointing. Every rank
  // persists its ZeRO-1 optimizer shard (fp32 master + Adam moments);
  // the first data-parallel rank of each stage additionally writes the
  // stage's bf16 parameters. CheckpointShardBytes is the worst single
  // rank's write (it governs the parallel write stall, see
  // core::CheckpointWriteCost); CheckpointStateBytes is the total unique
  // state a restore needs.
  Bytes CheckpointShardBytes() const;
  Bytes CheckpointStateBytes() const;

  // Per-stage / per-chunk decompositions of the summaries above, used by
  // the heterogeneous-fleet wrapper (core/fleet) to re-price one stage's
  // traffic on the fabric of the tier that hosts it.
  Bytes StageParamBytes(int stage) const;
  Bytes ChunkParamBytes(int chunk) const;
  // Pipeline boundary tensor volume of one slice (activations forward,
  // activation gradients backward — same size).
  Bytes BoundaryBytes(int slice) const;

  const Strategy& strategy() const { return strategy_; }
  const sched::PipelineProblem& problem() const { return problem_; }

 private:
  struct ChunkShape {
    int transformer_layers = 0;
    bool has_embedding = false;
    bool has_head = false;
  };

  std::int64_t SliceTokens(int slice) const;
  const ChunkShape& Shape(int chunk) const;

  model::TransformerConfig config_;
  Strategy strategy_;
  hw::ClusterSpec cluster_;
  sched::PipelineProblem problem_;
  TrainingCostOptions options_;
  hw::CommModel comm_;

  std::vector<model::SliceSpan> spans_;   // per-slice token ranges (per cp rank)
  std::vector<ChunkShape> chunks_;        // per global chunk
  // Precomputed durations [chunk][slice].
  std::vector<std::vector<Seconds>> forward_time_;
  std::vector<std::vector<Seconds>> backward_time_;   // act-grad half (or full)
  std::vector<std::vector<Seconds>> wgrad_time_;
  // Per-GEMM weight-gradient durations [chunk][slice][gemm].
  std::vector<std::vector<std::vector<Seconds>>> wgemm_time_;
  std::vector<Bytes> param_bytes_per_stage_;
  std::vector<Bytes> param_bytes_per_chunk_;
};

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_TRAINING_COST_H_
