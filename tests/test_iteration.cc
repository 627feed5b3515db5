// Integration tests: end-to-end iteration simulation (core/iteration).
#include "core/iteration.h"

#include <gtest/gtest.h>

#include "hw/cluster.h"
#include "model/transformer.h"
#include "sched/zbv.h"

namespace mepipe::core {
namespace {

struct Fixture {
  model::TransformerConfig config = model::Llama13B();
  hw::ClusterSpec cluster = hw::Rtx4090Cluster();

  Strategy Make(Method method, int pp, int dp, int slice = 1, int vp = 1,
                bool recompute = false) {
    Strategy s;
    s.method = method;
    s.pp = pp;
    s.dp = dp;
    s.vp = vp;
    s.recompute = recompute;
    if (method == Method::kSvpp || method == Method::kTeraPipe) {
      s.spp = slice;
    } else {
      s.cp = slice;
    }
    return s;
  }
};

TEST(Iteration, MepipePaperConfigIsFeasibleAndFast) {
  // Table 5: MEPipe on 13B, GBS=128: (PP=8, SPP=4, VP=1).
  Fixture fx;
  const auto result =
      SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, 4), fx.cluster, 128);
  ASSERT_TRUE(result.feasible) << result.note;
  EXPECT_EQ(result.micros, 16);
  // §7.6: ~116 TFLOPS/GPU, 35% MFU, 5.85 s. Allow generous tolerance.
  EXPECT_GT(result.mfu, 0.28);
  EXPECT_LT(result.mfu, 0.42);
  EXPECT_GT(ToMilliseconds(result.iteration_time), 4000);
  EXPECT_LT(ToMilliseconds(result.iteration_time), 8000);
}

TEST(Iteration, UnslicedMepipeIsMemoryStarved) {
  Fixture fx;
  const auto sliced =
      SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, 4), fx.cluster, 64);
  const auto unsliced =
      SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, 1), fx.cluster, 64);
  ASSERT_TRUE(sliced.feasible);
  if (unsliced.feasible) {
    EXPECT_GT(unsliced.iteration_time, sliced.iteration_time);
    EXPECT_GT(unsliced.bubble_ratio, sliced.bubble_ratio);
  }
}

TEST(Iteration, DappleNeedsCpForMemoryAtGbs64) {
  // §7.2: pure PP DAPPLE exceeds 24 GB; CP=2 fits.
  Fixture fx;
  const auto pure = SimulateIteration(fx.config, fx.Make(Method::kDapple, 8, 8), fx.cluster, 64);
  const auto cp2 =
      SimulateIteration(fx.config, fx.Make(Method::kDapple, 8, 4, 2), fx.cluster, 64);
  EXPECT_FALSE(pure.feasible);
  EXPECT_TRUE(cp2.feasible) << cp2.note;
}

TEST(Iteration, StructuralRejections) {
  Fixture fx;
  // 40 units % (16·2) != 0.
  auto r = SimulateIteration(fx.config, fx.Make(Method::kVpp, 16, 4, 1, 2), fx.cluster, 64);
  EXPECT_FALSE(r.feasible);
  // dp does not divide the batch.
  Strategy odd = fx.Make(Method::kDapple, 8, 8);
  r = SimulateIteration(fx.config, odd, fx.cluster, 60);
  EXPECT_FALSE(r.feasible);
  // wrong world size.
  Strategy small = fx.Make(Method::kDapple, 8, 4);
  r = SimulateIteration(fx.config, small, fx.cluster, 64);
  EXPECT_FALSE(r.feasible);
  // recompute with split backward.
  Strategy split = fx.Make(Method::kSvpp, 8, 8, 4);
  split.recompute = true;
  r = SimulateIteration(fx.config, split, fx.cluster, 64);
  EXPECT_FALSE(r.feasible);
  // Hanayo is analytic-only.
  Strategy hanayo = fx.Make(Method::kHanayo, 8, 8);
  r = SimulateIteration(fx.config, hanayo, fx.cluster, 64);
  EXPECT_FALSE(r.feasible);
}

TEST(Iteration, PeakMemoryWithinDeviceWhenFeasible) {
  Fixture fx;
  for (int spp : {2, 4, 8}) {
    const auto r =
        SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, spp), fx.cluster, 64);
    if (r.feasible) {
      EXPECT_LE(r.peak_memory, fx.cluster.gpu.usable_memory()) << "spp=" << spp;
      EXPECT_GT(r.peak_activation, 0);
      EXPECT_GT(r.static_memory, 0);
    }
  }
}

TEST(Iteration, IterationTimeDecomposition) {
  Fixture fx;
  const auto r = SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, 4), fx.cluster, 64);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.iteration_time, r.pipeline_time + r.dp_sync_time + Milliseconds(15), 1e-9);
  EXPECT_GT(r.dp_sync_time, 0);
}

TEST(Iteration, TimelineKeptOnlyWhenRequested) {
  Fixture fx;
  IterationOptions options;
  options.keep_timeline = false;
  const auto r = SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, 4), fx.cluster, 64,
                                   options);
  EXPECT_TRUE(r.sim.timeline.empty());
  // Dropped means released: planners hold every evaluated result.
  EXPECT_EQ(r.sim.timeline.capacity(), 0u);
  const auto with = SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, 4), fx.cluster, 64);
  EXPECT_FALSE(with.sim.timeline.empty());
}

TEST(Iteration, ZbKeepsBoundedMemoryViaBudgetDrains) {
  Fixture fx;
  const auto r = SimulateIteration(fx.config, fx.Make(Method::kZb1p, 8, 4, 2), fx.cluster, 64);
  ASSERT_TRUE(r.feasible) << r.note;
  EXPECT_LE(r.peak_memory, fx.cluster.gpu.usable_memory());
}

TEST(Iteration, ZbvCappedReportsHonestOneFOneBParityMemory) {
  // The capped generator's release-on-B accounting under-reports the
  // peak its deferred Ws actually hold (~A/2); the runner must floor
  // the measured profile at the construction's honest 1F1B-parity
  // bound so planner memory feasibility cannot be fooled.
  Fixture fx;
  fx.config = model::Llama7B();  // 32 layers divide pp*vp = 16
  const Strategy strategy = fx.Make(Method::kZbvCapped, 8, 8, 1, 2);
  const auto build = BuildCandidate(fx.config, strategy, fx.cluster, 64);
  ASSERT_TRUE(build.feasible) << build.note;
  const Bytes honest =
      static_cast<Bytes>(sched::ZbvMaxRetainedForwards(8, build.micros)) *
      build.costs->PerForwardActivationBytes();
  const auto result = SimulateIteration(fx.config, strategy, fx.cluster, 64);
  EXPECT_GE(result.peak_activation, honest);
  EXPECT_GE(result.peak_memory, result.static_memory + honest);
}

TEST(Iteration, SynthBuildsValidatedBudgetedSchedule) {
  // Method::kSynth rides the measured-cost construction path: V-shape
  // placement at vp=2, statically placed W, per-stage budgets derived
  // from (usable - static) / per-forward bytes.
  Fixture fx;
  fx.config = model::Llama7B();
  const Strategy strategy = fx.Make(Method::kSynth, 8, 8, 1, 2);
  const auto build = BuildCandidate(fx.config, strategy, fx.cluster, 64);
  ASSERT_TRUE(build.feasible) << build.note;
  EXPECT_EQ(build.schedule.problem.placement, sched::ChunkPlacement::kVShape);
  EXPECT_TRUE(build.schedule.problem.split_backward);
  EXPECT_FALSE(build.schedule.deferred_wgrad);
  EXPECT_EQ(build.schedule.method.rfind("Synth", 0), 0u);
  const auto result = SimulateIteration(fx.config, strategy, fx.cluster, 64);
  ASSERT_TRUE(result.feasible) << result.note;
  EXPECT_LE(result.peak_memory, fx.cluster.gpu.usable_memory());
  EXPECT_GT(result.mfu, 0.0);
}

TEST(Iteration, TeraPipeMemoryGrowsWithMicros) {
  // TeraPipe retains all samples' activations (§2.1) — more micros, more
  // memory, eventually OOM where SVPP still fits.
  Fixture fx;
  const auto tera =
      SimulateIteration(fx.config, fx.Make(Method::kTeraPipe, 8, 8, 4), fx.cluster, 128);
  const auto svpp =
      SimulateIteration(fx.config, fx.Make(Method::kSvpp, 8, 8, 4), fx.cluster, 128);
  ASSERT_TRUE(svpp.feasible);
  if (tera.feasible) {
    EXPECT_GT(tera.peak_activation, svpp.peak_activation);
  }
}

TEST(Iteration, Mepipe34BPaperConfigFits) {
  // Table 8: MEPipe trains 34B with (PP=16, SPP=16, VP=1) — the s=16
  // SVPP variant is what squeezes into the ~5 GB activation budget
  // (§7.4).
  Fixture fx;
  fx.config = model::Llama34B();
  const auto fine =
      SimulateIteration(fx.config, fx.Make(Method::kSvpp, 16, 4, 16), fx.cluster, 128);
  ASSERT_TRUE(fine.feasible) << fine.note;
  EXPECT_GT(fine.mfu, 0.25);
  // Coarse slicing cannot satisfy the memory limit at a useful bubble.
  const auto coarse =
      SimulateIteration(fx.config, fx.Make(Method::kSvpp, 16, 4, 2), fx.cluster, 128);
  if (coarse.feasible) {
    EXPECT_GT(coarse.iteration_time, fine.iteration_time);
  }
}

TEST(Iteration, Dapple34BNeedsRecompute) {
  // Table 8: DAPPLE's 34B config is (16, 2, 1, recompute ✓).
  Fixture fx;
  fx.config = model::Llama34B();
  const auto plain =
      SimulateIteration(fx.config, fx.Make(Method::kDapple, 16, 2, 2), fx.cluster, 128);
  EXPECT_FALSE(plain.feasible);
  const auto recomputed = SimulateIteration(
      fx.config, fx.Make(Method::kDapple, 16, 2, 2, 1, /*recompute=*/true), fx.cluster, 128);
  EXPECT_TRUE(recomputed.feasible) << recomputed.note;
}

TEST(Iteration, Llama7BZbPaperConfigWorks) {
  // Table 8: ZB trains 7B at (16, 1, 1) without context parallelism.
  Fixture fx;
  fx.config = model::Llama7B();
  const auto r = SimulateIteration(fx.config, fx.Make(Method::kZb1p, 16, 4), fx.cluster, 128);
  ASSERT_TRUE(r.feasible) << r.note;
  EXPECT_GT(r.mfu, 0.15);
}

TEST(Iteration, HanayoWaveExecutable) {
  Fixture fx;
  const auto r =
      SimulateIteration(fx.config, fx.Make(Method::kHanayo, 4, 8, 2, 2), fx.cluster, 64);
  // Feasibility depends on memory; either way the simulation must
  // produce coherent numbers.
  EXPECT_GT(r.pipeline_time, 0.0);
  EXPECT_GT(r.peak_memory, 0);
}

TEST(Iteration, A100ClusterRunsWithTensorParallelism) {
  Fixture fx;
  fx.cluster = hw::A100Cluster();
  Strategy s;
  s.method = Method::kDapple;
  s.pp = 4;
  s.dp = 1;
  s.tp = 8;
  const auto r = SimulateIteration(fx.config, s, fx.cluster, 128);
  ASSERT_TRUE(r.feasible) << r.note;
  EXPECT_GT(r.mfu, 0.2);
}

}  // namespace
}  // namespace mepipe::core
