#include "model/memory.h"

namespace mepipe::model {

Bytes LayerActivationBytesPerToken(const TransformerConfig& config) {
  const std::int64_t h = config.hidden;
  const std::int64_t hkv = config.kv_hidden();
  const std::int64_t f = config.ffn_hidden;
  // Retained for backward (bf16 = 2 bytes each):
  //   layer input (residual + dW_qkv input)            2h
  //   q                                                2h
  //   k, v                                             2·2·hkv
  //   attention output (input of out-projection)       2h
  //   MLP input (post-norm)                            2h
  //   gate out, up out, silu(gate)·up (input of down)  3·2f
  // plus two RMSNorm rstd scalars (negligible).
  return 2 * (4 * h + 2 * hkv) + 2 * 3 * f;
}

Bytes LayerActivationBytesPerTokenRecompute(const TransformerConfig& config) {
  return 2 * config.hidden;  // only the layer input tensor survives
}

Bytes BoundaryBytesPerToken(const TransformerConfig& config) { return 2 * config.hidden; }

Bytes LayerActGradBytesPerToken(const TransformerConfig& config) {
  // Output gradients of every dW GEMM must stay resident until W runs:
  // d(attn_out_proj_out) ~ h, d(q,k,v), d(gate), d(up), d(down input).
  const std::int64_t h = config.hidden;
  const std::int64_t hkv = config.kv_hidden();
  const std::int64_t f = config.ffn_hidden;
  return 2 * (2 * h + 2 * hkv) + 2 * 3 * f;
}

Bytes SampleActivationBytes(const TransformerConfig& config) {
  const Bytes per_token = LayerActivationBytesPerToken(config) * config.layers +
                          // embedding output + head input boundaries
                          2 * BoundaryBytesPerToken(config);
  return per_token * config.seq_len;
}

Bytes LogitsTemporaryBytes(const TransformerConfig& config, std::int64_t tokens) {
  // fp32 logits plus fp32 softmax/grad buffer.
  return 2 * 4 * tokens * config.vocab;
}

}  // namespace mepipe::model
