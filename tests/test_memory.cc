// Tests for the memory model (model/memory) against the paper's own
// byte arithmetic.
#include "model/memory.h"

#include <gtest/gtest.h>

#include "model/transformer.h"

namespace mepipe::model {
namespace {

TEST(Memory, LayerActivationBytesBallpark) {
  // Megatron's classic estimate is 34·h bytes/token/layer without
  // FlashAttention; with it, somewhat less. 13B (h=5120): tens of KiB.
  const auto config = Llama13B();
  const Bytes per_token = LayerActivationBytesPerToken(config);
  EXPECT_GT(per_token, 20 * config.hidden / 10);  // > 2h bytes, loose floor
  EXPECT_LT(per_token, 34 * config.hidden);       // below the no-flash bound
}

TEST(Memory, RecomputeKeepsOnlyLayerInput) {
  const auto config = Llama13B();
  EXPECT_EQ(LayerActivationBytesPerTokenRecompute(config), 2 * config.hidden);
  // §7.3: recomputation reduces activation memory by ~90%.
  const double ratio =
      static_cast<double>(LayerActivationBytesPerTokenRecompute(config)) /
      static_cast<double>(LayerActivationBytesPerToken(config));
  EXPECT_LT(ratio, 0.12);
}

TEST(Memory, SampleActivationBytesMatchesFigure1Scale) {
  // Figure 1's x-axis tops out above 20 GB for Llama 13B at L=4096 —
  // the per-sample whole-model activation footprint A.
  const auto config = Llama13B();
  const double a_gib = ToGiB(SampleActivationBytes(config));
  EXPECT_GT(a_gib, 15.0);
  EXPECT_LT(a_gib, 30.0);
}

TEST(Memory, BoundaryIsTwoBytesPerHidden) {
  const auto config = Llama7B();
  EXPECT_EQ(BoundaryBytesPerToken(config), 2 * config.hidden);
}

TEST(Memory, ActGradSmallerThanActivations) {
  const auto config = Llama13B();
  EXPECT_LT(LayerActGradBytesPerToken(config), LayerActivationBytesPerToken(config));
  EXPECT_GT(LayerActGradBytesPerToken(config), 0);
}

TEST(Memory, LogitsBytes) {
  const auto config = Llama13B();
  EXPECT_EQ(LogitsTemporaryBytes(config, 1024), 2LL * 4 * 1024 * 32000);
}

}  // namespace
}  // namespace mepipe::model
