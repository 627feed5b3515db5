#include "hw/efficiency.h"

#include "common/check.h"

namespace mepipe::hw {

double EfficiencyModel::ShapeEfficiency(std::int64_t hidden, std::int64_t tokens) const {
  MEPIPE_CHECK_GT(hidden, 0);
  MEPIPE_CHECK_GT(tokens, 0);
  const double t_half =
      kReferenceTHalf * static_cast<double>(kReferenceHidden) / static_cast<double>(hidden);
  const double t = static_cast<double>(tokens);
  return t / (t + t_half);
}

double EfficiencyModel::AlignmentEfficiency(std::int64_t tokens) const {
  MEPIPE_CHECK_GT(tokens, 0);
  constexpr std::int64_t kTile = 128;
  if (tokens % kTile == 0) {
    return 1.0;
  }
  // The ragged tail tile does full-tile work for partial output.
  const std::int64_t tiles = (tokens + kTile - 1) / kTile;
  return static_cast<double>(tokens) / static_cast<double>(tiles * kTile);
}

Seconds EfficiencyModel::KernelTime(Flops flops, const GpuSpec& gpu,
                                    const model::TransformerConfig& config,
                                    std::int64_t tokens) const {
  if (flops <= 0) {
    return 0.0;
  }
  const double efficiency = ShapeEfficiency(config.hidden, tokens);
  return flops / (gpu.sustained_matmul_flops() * efficiency);
}

}  // namespace mepipe::hw
