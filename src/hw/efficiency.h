// Operator-shape efficiency model.
//
// GEMM and FlashAttention kernels lose throughput as the token dimension
// of their inputs shrinks — the degradation both CP and SPP pay when they
// cut samples into slices (§7.3, Figure 9). The model is a saturating
// curve  eff(t) = t / (t + t_half)  whose half-saturation constant is
// calibrated so that a Llama-13B transformer layer slows by ≈12.6% when
// SPP goes from 1 to 8 at context 4096 — the paper's measurement.
// Narrower models (smaller hidden) saturate later because their GEMMs
// are smaller, hence t_half scales inversely with hidden width.
#ifndef MEPIPE_HW_EFFICIENCY_H_
#define MEPIPE_HW_EFFICIENCY_H_

#include <cstdint>

#include "common/units.h"
#include "hw/gpu.h"
#include "model/transformer.h"

namespace mepipe::hw {

class EfficiencyModel {
 public:
  // Relative kernel efficiency (0, 1] for matmul-class work on a slice of
  // `tokens` rows in a model of width `hidden`.
  double ShapeEfficiency(std::int64_t hidden, std::int64_t tokens) const;

  // Additional multiplier for row counts that are not tile-aligned
  // (multiples of 128): ragged final tiles waste tensor-core lanes. This
  // is the §5 cost of TeraPipe-style non-uniform slice boundaries on
  // "modern accelerators [where] operators exhibit optimal performance
  // when the input dimensions are powers of 2".
  double AlignmentEfficiency(std::int64_t tokens) const;

  // Time for `flops` of matmul-class work on `gpu` over a slice of
  // `tokens` tokens in `config`.
  Seconds KernelTime(Flops flops, const GpuSpec& gpu, const model::TransformerConfig& config,
                     std::int64_t tokens) const;

 private:
  // t_half at a hidden width of kReferenceHidden, calibrated to Figure 9
  // (13B, L=4096).
  static constexpr double kReferenceTHalf = 75.0;
  static constexpr std::int64_t kReferenceHidden = 5120;
};

}  // namespace mepipe::hw

#endif  // MEPIPE_HW_EFFICIENCY_H_
