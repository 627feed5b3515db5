#include "core/training_cost.h"

#include <algorithm>

#include "common/check.h"
#include "common/format.h"
#include "model/slicing.h"

namespace mepipe::core {
namespace {

double D(std::int64_t x) { return static_cast<double>(x); }

}  // namespace

std::string Strategy::ToString() const {
  std::string out = StrFormat("%s(pp=%d,dp=%d", core::ToString(method), pp, dp);
  if (cp > 1) {
    out += StrFormat(",cp=%d", cp);
  }
  if (tp > 1) {
    out += StrFormat(",tp=%d", tp);
  }
  if (vp > 1) {
    out += StrFormat(",vp=%d", vp);
  }
  if (spp > 1) {
    out += StrFormat(",spp=%d", spp);
  }
  if (recompute) {
    out += ",recomp";
  }
  return out + ")";
}

TrainingCostModel::TrainingCostModel(const model::TransformerConfig& config,
                                     const Strategy& strategy, const hw::ClusterSpec& cluster,
                                     const sched::PipelineProblem& problem,
                                     const TrainingCostOptions& options)
    : config_(config),
      strategy_(strategy),
      cluster_(cluster),
      problem_(problem),
      options_(options),
      comm_(cluster) {
  MEPIPE_CHECK_EQ(problem_.stages, strategy_.pp);
  MEPIPE_CHECK_EQ(problem_.virtual_chunks, strategy_.vp);
  MEPIPE_CHECK_EQ(problem_.slices, strategy_.spp);
  MEPIPE_CHECK(!(strategy_.cp > 1 && strategy_.spp > 1))
      << "CP and SPP both slice samples; the paper (and this model) use one at a time";
  MEPIPE_CHECK(!(strategy_.recompute && problem_.split_backward))
      << "recomputation is incompatible with split B/W (§7.1)";
  MEPIPE_CHECK_EQ(config_.seq_len % strategy_.cp, 0);

  const int num_chunks = problem_.num_chunks();
  const std::int64_t units = config_.partition_units();
  MEPIPE_CHECK_EQ(units % num_chunks, 0)
      << config_.name << ": " << units << " partition units not divisible by " << num_chunks
      << " chunks";
  const int units_per_chunk = static_cast<int>(units / num_chunks);
  MEPIPE_CHECK_GE(units_per_chunk, 1);

  // --- chunk shapes -------------------------------------------------------
  chunks_.resize(static_cast<std::size_t>(num_chunks));
  for (int g = 0; g < num_chunks; ++g) {
    ChunkShape& shape = chunks_[static_cast<std::size_t>(g)];
    shape.transformer_layers = units_per_chunk;
    if (g == 0) {
      shape.has_embedding = true;
      --shape.transformer_layers;
    }
    if (g == num_chunks - 1) {
      shape.has_head = true;
      --shape.transformer_layers;
    }
    MEPIPE_CHECK_GE(shape.transformer_layers, 0);
  }

  // --- slice spans ---------------------------------------------------------
  const std::int64_t tokens_per_rank = config_.seq_len / strategy_.cp;
  if (options_.balanced_slices && strategy_.spp > 1) {
    MEPIPE_CHECK_EQ(strategy_.cp, 1) << "balanced slicing applies to SPP, not CP";
    spans_ = model::AlignSlices(
        model::BalancedSlices(config_, tokens_per_rank, strategy_.spp),
        options_.slice_alignment);
  } else {
    spans_ = model::UniformSlices(tokens_per_rank, strategy_.spp);
  }

  // --- per (chunk, slice) durations ---------------------------------------
  const double tp = D(strategy_.tp);
  const auto kernel_time = [&](Flops flops, std::int64_t tokens) -> Seconds {
    if (flops <= 0) {
      return 0.0;
    }
    const std::int64_t hidden_eff = std::max<std::int64_t>(1, config_.hidden / strategy_.tp);
    // Megatron's CP splits each rank's tokens into two symmetric chunks
    // for load balance (§7.3), so kernels see half the rows.
    const std::int64_t eff_tokens = strategy_.cp > 1 ? std::max<std::int64_t>(1, tokens / 2)
                                                     : tokens;
    const double eff = options_.efficiency.ShapeEfficiency(hidden_eff, eff_tokens) *
                       options_.efficiency.AlignmentEfficiency(eff_tokens);
    return flops / (cluster_.gpu.sustained_matmul_flops() * eff);
  };

  forward_time_.assign(static_cast<std::size_t>(num_chunks), {});
  backward_time_.assign(static_cast<std::size_t>(num_chunks), {});
  wgrad_time_.assign(static_cast<std::size_t>(num_chunks), {});
  wgemm_time_.assign(static_cast<std::size_t>(num_chunks), {});

  for (int g = 0; g < num_chunks; ++g) {
    const ChunkShape& shape = chunks_[static_cast<std::size_t>(g)];
    auto& f_row = forward_time_[static_cast<std::size_t>(g)];
    auto& b_row = backward_time_[static_cast<std::size_t>(g)];
    auto& w_row = wgrad_time_[static_cast<std::size_t>(g)];
    auto& wg_row = wgemm_time_[static_cast<std::size_t>(g)];

    for (int t = 0; t < strategy_.spp; ++t) {
      const model::SliceSpan span = spans_[static_cast<std::size_t>(t)];
      const std::int64_t tokens = span.tokens;

      // Per-layer FLOPs of this slice. With CP the sample is split across
      // ranks: GEMMs see tokens/cp rows; the (globally causal) attention
      // work is balanced symmetrically, i.e. 1/cp of the whole sample's.
      model::LayerFlops layer;
      if (strategy_.cp == 1) {
        layer = model::ForwardLayerFlops(config_, span);
      } else {
        layer.gemm = model::ForwardLayerFlops(config_, {0, tokens}).gemm;
        layer.attention =
            model::ForwardLayerFlops(config_, {0, config_.seq_len}).attention / D(strategy_.cp);
      }

      const double layers = D(shape.transformer_layers);
      Flops f_flops = layers * layer.total() / tp;
      Flops b_flops = layers * (layer.gemm + 2.0 * layer.attention) / tp;
      Flops w_flops = layers * layer.gemm / tp;
      if (shape.has_embedding) {
        f_flops += model::ForwardEmbeddingFlops(config_, tokens);
      }
      if (shape.has_head) {
        f_flops += model::ForwardHeadFlops(config_, tokens) / tp;
        b_flops += model::BackwardHeadFlops(config_, tokens) / tp;
        w_flops += model::WeightGradHeadFlops(config_, tokens) / tp;
      }

      // Communication serialized with the op (conservatively): CP's KV
      // ring per layer, TP's two all-reduces per layer. The backward pass
      // circulates K/V again *and* returns dK/dV partials — 2× the
      // forward exchange volume.
      const Seconds cp_comm =
          layers * comm_.CpKvExchangePerLayer(config_, tokens, strategy_.layout());
      const Seconds cp_comm_backward = 2.0 * cp_comm;
      const Seconds tp_comm =
          layers * comm_.TpAllReducePerLayer(config_, tokens, strategy_.layout());

      Seconds f_time = kernel_time(f_flops, tokens) + cp_comm + tp_comm + options_.op_overhead;
      Seconds b_time =
          kernel_time(b_flops, tokens) + cp_comm_backward + tp_comm + options_.op_overhead;
      if (strategy_.recompute) {
        b_time += kernel_time(f_flops, tokens) + cp_comm + tp_comm;
      }
      if (!problem_.split_backward) {
        b_time += kernel_time(w_flops, tokens);
      }
      const Seconds w_time = kernel_time(w_flops, tokens) + options_.op_overhead;

      f_row.push_back(f_time);
      b_row.push_back(b_time);
      w_row.push_back(w_time);

      // Per-GEMM decomposition of W (§5): 7 GEMMs per transformer layer
      // plus one for the head projection.
      std::vector<Seconds> gemms;
      const std::vector<Flops> layer_gemms = model::WeightGradGemms(config_, tokens);
      for (int l = 0; l < shape.transformer_layers; ++l) {
        for (const Flops flops : layer_gemms) {
          gemms.push_back(kernel_time(flops / tp, tokens) + options_.op_overhead / 8.0);
        }
      }
      if (shape.has_head) {
        gemms.push_back(kernel_time(model::WeightGradHeadFlops(config_, tokens) / tp, tokens) +
                        options_.op_overhead / 8.0);
      }
      if (gemms.empty()) {
        gemms.push_back(w_time);  // embedding-only chunk: a single tiny task
      }
      wg_row.push_back(std::move(gemms));
    }
  }

  // --- per-stage / per-chunk parameter bytes -------------------------------
  param_bytes_per_stage_.assign(static_cast<std::size_t>(problem_.stages), 0);
  param_bytes_per_chunk_.assign(static_cast<std::size_t>(num_chunks), 0);
  for (int g = 0; g < num_chunks; ++g) {
    const ChunkShape& shape = chunks_[static_cast<std::size_t>(g)];
    std::int64_t params =
        static_cast<std::int64_t>(shape.transformer_layers) * config_.params_per_layer();
    if (shape.has_embedding) {
      params += config_.embedding_params();
    }
    if (shape.has_head) {
      params += config_.head_params();
    }
    const Bytes bytes = params * options_.memory.bytes_per_param / strategy_.tp;
    param_bytes_per_chunk_[static_cast<std::size_t>(g)] = bytes;
    param_bytes_per_stage_[static_cast<std::size_t>(problem_.stage_of_chunk(g))] += bytes;
  }
}

std::int64_t TrainingCostModel::SliceTokens(int slice) const {
  return spans_[static_cast<std::size_t>(slice)].tokens;
}

const TrainingCostModel::ChunkShape& TrainingCostModel::Shape(int chunk) const {
  return chunks_[static_cast<std::size_t>(chunk)];
}

Seconds TrainingCostModel::ComputeTime(const sched::OpId& op) const {
  const auto g = static_cast<std::size_t>(op.chunk);
  const auto t = static_cast<std::size_t>(op.slice);
  switch (op.kind) {
    case sched::OpKind::kForward:
      return forward_time_[g][t];
    case sched::OpKind::kBackward:
      return backward_time_[g][t];
    case sched::OpKind::kWeightGrad:
      return wgrad_time_[g][t];
    case sched::OpKind::kWeightGradGemm: {
      const auto& gemms = wgemm_time_[g][t];
      MEPIPE_CHECK_GE(op.gemm, 0);
      MEPIPE_CHECK_LT(static_cast<std::size_t>(op.gemm), gemms.size());
      return gemms[static_cast<std::size_t>(op.gemm)];
    }
    case sched::OpKind::kDpSync:
      return DpSyncTime(op);  // comm op; the engine prices it via DpSyncTime
  }
  return 0.0;
}

Seconds TrainingCostModel::DpSyncTime(const sched::OpId& bucket) const {
  return comm_.DpGradientSync(param_bytes_per_chunk_[static_cast<std::size_t>(bucket.chunk)],
                              strategy_.layout());
}

Seconds TrainingCostModel::TransferTime(const sched::OpId& producer) const {
  const Bytes bytes =
      model::BoundaryBytesPerToken(config_) * SliceTokens(producer.slice);
  return comm_.PipelineP2p(bytes, strategy_.layout());
}

Bytes TrainingCostModel::ActivationBytes(const sched::OpId& forward) const {
  const ChunkShape& shape = Shape(forward.chunk);
  const Bytes per_token = strategy_.recompute
                              ? model::LayerActivationBytesPerTokenRecompute(config_)
                              : model::LayerActivationBytesPerToken(config_);
  return per_token * SliceTokens(forward.slice) * shape.transformer_layers / strategy_.tp;
}

Bytes TrainingCostModel::ActGradBytes(const sched::OpId& backward) const {
  const ChunkShape& shape = Shape(backward.chunk);
  return model::LayerActGradBytesPerToken(config_) * SliceTokens(backward.slice) *
         shape.transformer_layers / strategy_.tp;
}

int TrainingCostModel::WeightGradGemmCount(const sched::OpId& wgrad) const {
  return static_cast<int>(
      wgemm_time_[static_cast<std::size_t>(wgrad.chunk)][static_cast<std::size_t>(wgrad.slice)]
          .size());
}

Bytes TrainingCostModel::StaticMemory(int stage) const {
  const Bytes params = param_bytes_per_stage_[static_cast<std::size_t>(stage)];
  // bf16 params + bf16 grads + sharded mixed-precision optimizer (§7.4).
  const Bytes grads = params * options_.memory.bytes_per_grad / options_.memory.bytes_per_param;
  const std::int64_t param_count = params / options_.memory.bytes_per_param;
  // ZeRO-1 shards the optimizer over Megatron's distributed-optimizer
  // group: all dp·cp ranks holding identical parameters (§7.2).
  const Bytes optimizer = param_count * options_.memory.optimizer_bytes_per_param /
                          (strategy_.dp * strategy_.cp);
  Bytes temporary = options_.memory.fixed_workspace;
  const int head_stage = problem_.stage_of_chunk(problem_.num_chunks() - 1);
  if (stage == head_stage) {
    std::int64_t max_tokens = 0;
    for (const auto& span : spans_) {
      max_tokens = std::max(max_tokens, span.tokens);
    }
    temporary += model::LogitsTemporaryBytes(config_, max_tokens) / strategy_.tp;
  }
  return params + grads + optimizer + temporary;
}

Bytes TrainingCostModel::MaxStaticMemory() const {
  Bytes max_bytes = 0;
  for (int stage = 0; stage < problem_.stages; ++stage) {
    max_bytes = std::max(max_bytes, StaticMemory(stage));
  }
  return max_bytes;
}

Bytes TrainingCostModel::CheckpointShardBytes() const {
  Bytes worst = 0;
  for (const Bytes params : param_bytes_per_stage_) {
    const std::int64_t param_count = params / options_.memory.bytes_per_param;
    const Bytes optimizer_shard = param_count * options_.memory.optimizer_bytes_per_param /
                                  (strategy_.dp * strategy_.cp);
    // The dp-rank-0 writer of the biggest stage pays params + its shard.
    worst = std::max(worst, params + optimizer_shard);
  }
  return worst;
}

Bytes TrainingCostModel::CheckpointStateBytes() const {
  Bytes total = 0;
  for (const Bytes params : param_bytes_per_stage_) {
    const std::int64_t param_count = params / options_.memory.bytes_per_param;
    total += params + param_count * options_.memory.optimizer_bytes_per_param;
  }
  return total;
}

Seconds TrainingCostModel::DpSyncTime() const {
  Seconds worst = 0;
  for (const Bytes params : param_bytes_per_stage_) {
    worst = std::max(worst, comm_.DpGradientSync(params, strategy_.layout()));
  }
  return worst;
}

Bytes TrainingCostModel::StageParamBytes(int stage) const {
  return param_bytes_per_stage_[static_cast<std::size_t>(stage)];
}

Bytes TrainingCostModel::ChunkParamBytes(int chunk) const {
  return param_bytes_per_chunk_[static_cast<std::size_t>(chunk)];
}

Bytes TrainingCostModel::BoundaryBytes(int slice) const {
  return model::BoundaryBytesPerToken(config_) * SliceTokens(slice);
}

Bytes TrainingCostModel::PerForwardActivationBytes() const {
  Bytes worst = 0;
  for (int g = 0; g < problem_.num_chunks(); ++g) {
    for (int t = 0; t < problem_.slices; ++t) {
      worst = std::max(worst, ActivationBytes({sched::OpKind::kForward, 0, t, g}));
    }
  }
  return worst;
}

}  // namespace mepipe::core
