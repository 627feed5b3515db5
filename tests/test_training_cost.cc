// Tests for the production cost model (core/training_cost).
#include "core/training_cost.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "hw/cluster.h"
#include "model/memory.h"
#include "model/transformer.h"

namespace mepipe::core {
namespace {

using sched::OpId;
using sched::OpKind;

struct Fixture {
  model::TransformerConfig config = model::Llama13B();
  hw::ClusterSpec cluster = hw::Rtx4090Cluster();

  sched::PipelineProblem Problem(const Strategy& s, int micros = 4) {
    sched::PipelineProblem problem;
    problem.stages = s.pp;
    problem.virtual_chunks = s.vp;
    problem.slices = s.spp;
    problem.micros = micros;
    problem.split_backward =
        s.method == Method::kSvpp || s.method == Method::kZb1p || s.method == Method::kZbv;
    return problem;
  }

  Strategy Mepipe(int pp, int dp, int spp) {
    Strategy s;
    s.method = Method::kSvpp;
    s.pp = pp;
    s.dp = dp;
    s.spp = spp;
    return s;
  }
};

TEST(TrainingCost, LaterSlicesCostMoreForward) {
  Fixture fx;
  const Strategy s = fx.Mepipe(8, 8, 4);
  TrainingCostModel costs(fx.config, s, fx.cluster, fx.Problem(s));
  const Seconds first = costs.ComputeTime({OpKind::kForward, 0, 0, 1});
  const Seconds last = costs.ComputeTime({OpKind::kForward, 0, 3, 1});
  EXPECT_GT(last, first);  // causal-attention imbalance (§5)
}

TEST(TrainingCost, WeightGradBalancedAcrossSlices) {
  Fixture fx;
  const Strategy s = fx.Mepipe(8, 8, 4);
  TrainingCostModel costs(fx.config, s, fx.cluster, fx.Problem(s));
  EXPECT_DOUBLE_EQ(costs.ComputeTime({OpKind::kWeightGrad, 0, 0, 1}),
                   costs.ComputeTime({OpKind::kWeightGrad, 0, 3, 1}));
}

TEST(TrainingCost, GemmsPartitionTheWholeW) {
  Fixture fx;
  const Strategy s = fx.Mepipe(8, 8, 4);
  TrainingCostModel costs(fx.config, s, fx.cluster, fx.Problem(s));
  const OpId w{OpKind::kWeightGrad, 0, 1, 2};
  const int count = costs.WeightGradGemmCount(w);
  EXPECT_EQ(count, 5 * 7);  // 5 layers per chunk × 7 GEMMs
  Seconds total = 0;
  for (int k = 0; k < count; ++k) {
    total += costs.ComputeTime({OpKind::kWeightGradGemm, 0, 1, 2, k});
  }
  // Sum of GEMMs ≈ whole W (modulo per-launch overhead).
  EXPECT_NEAR(total, costs.ComputeTime(w), costs.ComputeTime(w) * 0.15);
}

TEST(TrainingCost, HeadChunkHasExtraGemm) {
  Fixture fx;
  const Strategy s = fx.Mepipe(8, 8, 4);
  TrainingCostModel costs(fx.config, s, fx.cluster, fx.Problem(s));
  EXPECT_EQ(costs.WeightGradGemmCount({OpKind::kWeightGrad, 0, 0, 7}), 4 * 7 + 1);
}

TEST(TrainingCost, TransfersScaleWithSliceTokens) {
  Fixture fx;
  const Strategy s = fx.Mepipe(8, 8, 4);
  TrainingCostModel costs(fx.config, s, fx.cluster, fx.Problem(s));
  const Seconds t = costs.TransferTime({OpKind::kForward, 0, 0, 1});
  EXPECT_GT(t, 0);

  const Strategy s8 = fx.Mepipe(8, 8, 8);
  TrainingCostModel costs8(fx.config, s8, fx.cluster, fx.Problem(s8));
  EXPECT_LT(costs8.TransferTime({OpKind::kForward, 0, 0, 1}), t);
}

TEST(TrainingCost, RecomputeShrinksActivationsAndSlowsBackward) {
  Fixture fx;
  Strategy plain;
  plain.method = Method::kDapple;
  plain.pp = 8;
  plain.dp = 8;
  Strategy recomputed = plain;
  recomputed.recompute = true;
  TrainingCostModel a(fx.config, plain, fx.cluster, fx.Problem(plain));
  TrainingCostModel b(fx.config, recomputed, fx.cluster, fx.Problem(recomputed));
  EXPECT_LT(b.ActivationBytes({OpKind::kForward, 0, 0, 1}),
            a.ActivationBytes({OpKind::kForward, 0, 0, 1}) / 5);
  EXPECT_GT(b.ComputeTime({OpKind::kBackward, 0, 0, 1}),
            a.ComputeTime({OpKind::kBackward, 0, 0, 1}));
}

TEST(TrainingCost, CpAddsCommToForward) {
  Fixture fx;
  Strategy nocp;
  nocp.method = Method::kDapple;
  nocp.pp = 8;
  nocp.dp = 8;
  Strategy cp = nocp;
  cp.dp = 4;
  cp.cp = 2;
  TrainingCostModel a(fx.config, nocp, fx.cluster, fx.Problem(nocp));
  TrainingCostModel b(fx.config, cp, fx.cluster, fx.Problem(cp));
  // CP halves tokens per rank but adds per-layer KV exchange; compare the
  // per-token cost.
  const Seconds full = a.ComputeTime({OpKind::kForward, 0, 0, 1});
  const Seconds half = b.ComputeTime({OpKind::kForward, 0, 0, 1});
  EXPECT_GT(half * 2, full);  // 2 half-forwards cost more than 1 full
}

TEST(TrainingCost, StaticMemoryDropsWithPp) {
  Fixture fx;
  const Strategy p8 = fx.Mepipe(8, 8, 4);
  const Strategy p4 = fx.Mepipe(4, 16, 4);
  TrainingCostModel a(fx.config, p8, fx.cluster, fx.Problem(p8));
  TrainingCostModel b(fx.config, p4, fx.cluster, fx.Problem(p4));
  EXPECT_LT(a.MaxStaticMemory(), b.MaxStaticMemory());
}

// §7.4's per-worker byte arithmetic for Llama-34B at pp=16, dp=4 on 64
// RTX 4090s (P parameters; a middle stage holds about P/16).
TEST(TrainingCost, OptimizerShardingMatchesPaper34B) {
  // "The mixed precision optimizer in Megatron-LM occupies around 6.375
  // GB for each worker" — 34e9 params × 12 B over 64 workers. With bf16
  // parameters and gradients a middle stage's static memory, workspace
  // aside, is 4·P/16 + 12·P/64 bytes.
  Fixture fx;
  fx.config = model::Llama34B();
  const Strategy s = fx.Mepipe(16, 4, 1);
  const TrainingCostModel costs(fx.config, s, fx.cluster, fx.Problem(s));
  const double params = static_cast<double>(fx.config.total_params());
  const double expected_gib =
      (4.0 * params / 16.0 + 12.0 * params / 64.0) / static_cast<double>(kGiB);
  EXPECT_NEAR(ToGiB(costs.StaticMemory(8) - model::kFixedWorkspace), expected_gib,
              expected_gib * 0.15);
}

TEST(TrainingCost, ParamAndGradBytesMatchPaper34B) {
  // Parameters + gradients ≈ 34·4/p GB per worker: bf16 parameters are
  // 2·P/16 bytes on a middle stage, and the bf16 gradients as many.
  Fixture fx;
  fx.config = model::Llama34B();
  const Strategy s = fx.Mepipe(16, 4, 1);
  const TrainingCostModel costs(fx.config, s, fx.cluster, fx.Problem(s));
  const double expected_gib =
      2.0 * static_cast<double>(fx.config.total_params()) / 16.0 / static_cast<double>(kGiB);
  EXPECT_NEAR(ToGiB(costs.StageParamBytes(8)), expected_gib, expected_gib * 0.15);
}

TEST(TrainingCost, HeadStagePaysLogitsTemporary) {
  // Only the head stage materializes the fp32 logits of its longest
  // slice, so slicing samples (an SPP side benefit) shrinks it there and
  // nowhere else.
  Fixture fx;
  const Strategy whole = fx.Mepipe(8, 8, 1);
  const Strategy sliced = fx.Mepipe(8, 8, 8);
  const TrainingCostModel a(fx.config, whole, fx.cluster, fx.Problem(whole));
  const TrainingCostModel b(fx.config, sliced, fx.cluster, fx.Problem(sliced));
  const int head = 7;
  EXPECT_EQ(a.StaticMemory(0), b.StaticMemory(0));
  EXPECT_EQ(a.StaticMemory(head) - b.StaticMemory(head),
            model::LogitsTemporaryBytes(fx.config, fx.config.seq_len) -
                model::LogitsTemporaryBytes(fx.config, fx.config.seq_len / 8));
  EXPECT_GT(a.StaticMemory(head), b.StaticMemory(head));
}

TEST(TrainingCost, DpSyncGrowsWithParamBytes) {
  Fixture fx;
  const Strategy p8 = fx.Mepipe(8, 8, 4);
  const Strategy p4 = fx.Mepipe(4, 16, 4);
  TrainingCostModel a(fx.config, p8, fx.cluster, fx.Problem(p8));
  TrainingCostModel b(fx.config, p4, fx.cluster, fx.Problem(p4));
  EXPECT_GT(b.DpSyncTime(), 0.0);
  EXPECT_GT(b.DpSyncTime(), a.DpSyncTime() * 0.9);
}

TEST(TrainingCost, RejectsUnsupportedCombinations) {
  Fixture fx;
  Strategy bad = fx.Mepipe(8, 8, 4);
  bad.cp = 2;  // cp and spp together
  EXPECT_THROW(TrainingCostModel(fx.config, bad, fx.cluster, fx.Problem(bad)), CheckError);

  Strategy indivisible = fx.Mepipe(16, 4, 4);
  indivisible.vp = 2;  // 40 units % 32 chunks != 0
  EXPECT_THROW(
      TrainingCostModel(fx.config, indivisible, fx.cluster, fx.Problem(indivisible)),
      CheckError);
}

TEST(TrainingCost, TpDividesComputeAndParams) {
  Fixture fx;
  fx.cluster = hw::A100Cluster();
  Strategy tp1;
  tp1.method = Method::kDapple;
  tp1.pp = 4;
  tp1.dp = 8;
  Strategy tp8 = tp1;
  tp8.dp = 1;
  tp8.tp = 8;
  TrainingCostModel a(fx.config, tp1, fx.cluster, fx.Problem(tp1));
  TrainingCostModel b(fx.config, tp8, fx.cluster, fx.Problem(tp8));
  EXPECT_LT(b.MaxStaticMemory(), a.MaxStaticMemory());
  EXPECT_LT(b.ActivationBytes({OpKind::kForward, 0, 0, 1}),
            a.ActivationBytes({OpKind::kForward, 0, 0, 1}));
}

TEST(TrainingCost, CheckpointShardShrinksWithPipelineDepth) {
  // The worst writer carries its stage's bf16 parameters (∝ 1/pp) plus
  // its ZeRO-1 optimizer shard (invariant: total·opt_bytes/(pp·dp·cp)
  // with pp·dp·cp fixed at the world size). Deeper pipelines therefore
  // checkpoint strictly cheaper per rank.
  Fixture fx;
  const Strategy shallow = fx.Mepipe(4, 16, 4);
  const Strategy deep = fx.Mepipe(8, 8, 4);
  TrainingCostModel a(fx.config, shallow, fx.cluster, fx.Problem(shallow));
  TrainingCostModel b(fx.config, deep, fx.cluster, fx.Problem(deep));
  EXPECT_GT(a.CheckpointShardBytes(), b.CheckpointShardBytes());
  // Total restore state is layout-independent up to partition rounding.
  EXPECT_NEAR(static_cast<double>(a.CheckpointStateBytes()),
              static_cast<double>(b.CheckpointStateBytes()),
              0.02 * static_cast<double>(a.CheckpointStateBytes()));
  // A shard is one rank's slice of the state, never the whole of it.
  EXPECT_LT(a.CheckpointShardBytes(), a.CheckpointStateBytes());
}

TEST(TrainingCost, StrategyToString) {
  Fixture fx;
  Strategy s = fx.Mepipe(8, 8, 4);
  EXPECT_EQ(s.ToString(), "MEPipe(pp=8,dp=8,spp=4)");
  s.recompute = true;
  s.method = Method::kDapple;
  s.spp = 1;
  s.cp = 2;
  s.dp = 4;
  EXPECT_EQ(s.ToString(), "DAPPLE(pp=8,dp=4,cp=2,recomp)");
}

}  // namespace
}  // namespace mepipe::core
