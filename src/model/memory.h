// Memory cost model (§4.5): the byte accounting behind the three
// components the paper's variant selector reasons about — static memory
// (parameters, gradients, optimizer shards; core::TrainingCostModel::
// StaticMemory sums them per stage), temporary memory (loss/logits
// workspace), and activation memory retained between forward and
// backward passes.
//
// All byte counts are for bf16/fp16 training with a Megatron-style
// mixed-precision Adam optimizer sharded over the data-parallel group
// (ZeRO-1), matching the paper's setup.
#ifndef MEPIPE_MODEL_MEMORY_H_
#define MEPIPE_MODEL_MEMORY_H_

#include <cstdint>

#include "common/units.h"
#include "model/transformer.h"

namespace mepipe::model {

// Static-memory byte widths of the paper's setup, which
// core::TrainingCostModel::StaticMemory prices each stage with (e.g. §7.4:
// the mixed-precision optimizer occupies 12 bytes/param sharded over all
// d·p workers ⇒ 6.375 GB for 34B on 64).
inline constexpr int kBytesPerParam = 2;            // bf16 parameters
inline constexpr int kBytesPerGrad = 2;             // bf16 gradient buffers
inline constexpr int kOptimizerBytesPerParam = 12;  // fp32 master + Adam m, v (ZeRO-1 sharded)
inline constexpr Bytes kFixedWorkspace = kGiB;      // cuDNN/cuBLAS/NCCL workspaces

// --- Activation accounting -------------------------------------------------

// Bytes of activations one transformer layer must retain per token for its
// backward pass (FlashAttention: no quadratic score matrix is stored).
Bytes LayerActivationBytesPerToken(const TransformerConfig& config);

// Same, when full recomputation is enabled: only the layer input survives.
Bytes LayerActivationBytesPerTokenRecompute(const TransformerConfig& config);

// Bytes of the hidden-state boundary tensor transferred between pipeline
// stages, per token.
Bytes BoundaryBytesPerToken(const TransformerConfig& config);

// Bytes of activation *gradients* retained per token per layer between a
// split backward (B) and its deferred weight-gradient computation (W).
// This is the extra footprint of zero-bubble-style scheduling (§7.1).
Bytes LayerActGradBytesPerToken(const TransformerConfig& config);

// Activation memory of one full sample through the whole model — the "A"
// of Table 3 (embedding/head contributions folded in).
Bytes SampleActivationBytes(const TransformerConfig& config);

// --- Temporary accounting --------------------------------------------------

// Temporary bytes for materializing fp32 logits + softmax for `tokens`
// tokens on the head stage. Slicing samples (SPP) shrinks this too.
Bytes LogitsTemporaryBytes(const TransformerConfig& config, std::int64_t tokens);

}  // namespace mepipe::model

#endif  // MEPIPE_MODEL_MEMORY_H_
