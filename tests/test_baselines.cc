// Tests for the baseline schedule constructions (sched/baselines).
#include "sched/baselines.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "sched/validate.h"
#include "sched/zbv.h"
#include "sim/cost_model.h"
#include "sim/engine.h"

namespace mepipe::sched {
namespace {

TEST(GPipe, AllForwardsBeforeBackwards) {
  const Schedule schedule = GPipeSchedule(4, 6);
  for (int stage = 0; stage < 4; ++stage) {
    EXPECT_EQ(FirstBackwardIndex(schedule, stage), 6u);
  }
}

TEST(OneFOneB, WarmupDepthDecreasesByStage) {
  const Schedule schedule = OneFOneBSchedule(4, 8);
  for (int stage = 0; stage < 4; ++stage) {
    EXPECT_EQ(FirstBackwardIndex(schedule, stage), static_cast<std::size_t>(4 - stage));
  }
}

TEST(OneFOneB, FewMicrosLimitWarmup) {
  const Schedule schedule = OneFOneBSchedule(8, 3);
  EXPECT_LE(PeakRetainedForwards(schedule, 0), 3);
}

TEST(Vpp, RequiresDivisibleMicros) {
  EXPECT_THROW(VppSchedule(4, 2, 6), CheckError);
  EXPECT_THROW(VppSchedule(4, 1, 8), CheckError);
}

TEST(Vpp, MegatronWarmupFormula) {
  const int p = 4;
  const int v = 2;
  const int n = 8;
  const Schedule schedule = VppSchedule(p, v, n);
  for (int rank = 0; rank < p; ++rank) {
    const int warmup = std::min((p - rank - 1) * 2 + (v - 1) * p, n * v);
    // Megatron's steady loop issues one more forward before the first
    // backward, so the first B sits at index warmup + 1.
    EXPECT_EQ(FirstBackwardIndex(schedule, rank), static_cast<std::size_t>(warmup + 1))
        << "rank " << rank;
  }
}

TEST(Vpp, ChunkCyclingOrder) {
  // First p forwards of rank 0 are chunk 0 for micros 0..p-1, then
  // chunk 1 (global chunk p) for the same micros.
  const Schedule schedule = VppSchedule(4, 2, 8);
  const auto& ops = schedule.stage_ops[0];
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(ops[static_cast<std::size_t>(k)].chunk, 0);
    EXPECT_EQ(ops[static_cast<std::size_t>(k)].micro, k);
  }
  for (int k = 4; k < 8; ++k) {
    EXPECT_EQ(ops[static_cast<std::size_t>(k)].chunk, 4);
    EXPECT_EQ(ops[static_cast<std::size_t>(k)].micro, k - 4);
  }
}

TEST(Vpp, LowerBubbleThanOneFOneB) {
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  const auto vpp = Simulate(VppSchedule(4, 2, 8), costs);
  const auto fb = Simulate(OneFOneBSchedule(4, 8), costs);
  EXPECT_LT(vpp.bubble_ratio, fb.bubble_ratio);
}

TEST(TeraPipe, SliceOrderWithinMicro) {
  const Schedule schedule = TeraPipeSchedule(2, 4, 3);
  const auto& ops = schedule.stage_ops[0];
  // All forwards first, slices in causal order within each micro.
  for (int m = 0; m < 3; ++m) {
    for (int t = 0; t < 4; ++t) {
      const OpId& op = ops[static_cast<std::size_t>(m * 4 + t)];
      EXPECT_EQ(op.kind, OpKind::kForward);
      EXPECT_EQ(op.micro, m);
      EXPECT_EQ(op.slice, t);
    }
  }
}

TEST(TeraPipe, RetainsAllSlicesLikeGPipe) {
  const Schedule schedule = TeraPipeSchedule(4, 4, 4);
  EXPECT_EQ(PeakRetainedForwards(schedule, 0), 16);  // n·s
}

TEST(TeraPipe, LowerBubbleThanGPipeAtSameMicros) {
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  // Slice ops are s× shorter; compare bubble *ratios*.
  const auto tera = Simulate(TeraPipeSchedule(4, 4, 4), costs);
  const auto gpipe = Simulate(GPipeSchedule(4, 4), costs);
  EXPECT_LT(tera.bubble_ratio, gpipe.bubble_ratio);
}

TEST(Zb1p, SplitsBackwardAndDefersW) {
  const Schedule schedule = Zb1pSchedule(4, 8);
  EXPECT_TRUE(schedule.problem.split_backward);
  EXPECT_TRUE(schedule.deferred_wgrad);
  for (const auto& ops : schedule.stage_ops) {
    EXPECT_EQ(ops.size(), 16u);  // F and B only; W executed by the engine
  }
}

TEST(Zbv, VShapePlacesBothEndsOnStageZero) {
  const Schedule schedule = ZbvSchedule(4, 8);
  EXPECT_EQ(schedule.problem.placement, ChunkPlacement::kVShape);
  EXPECT_EQ(schedule.problem.stage_of_chunk(0), 0);
  EXPECT_EQ(schedule.problem.stage_of_chunk(7), 0);
}

TEST(Zbv, HandcraftedPlacesWStatically) {
  const Schedule schedule = ZbvSchedule(4, 8);
  EXPECT_FALSE(schedule.deferred_wgrad);
  for (const auto& ops : schedule.stage_ops) {
    EXPECT_EQ(ops.size(), 48u);  // 2n each of F, B, W
  }
}

TEST(ZbvCapped, KeepsTheOldDeferredWShape) {
  const Schedule schedule = ZbvCappedSchedule(4, 8);
  EXPECT_TRUE(schedule.deferred_wgrad);
  EXPECT_EQ(schedule.problem.placement, ChunkPlacement::kVShape);
  EXPECT_LE(PeakRetainedForwards(schedule, 0), 4);
  for (const auto& ops : schedule.stage_ops) {
    EXPECT_EQ(ops.size(), 32u);  // F and B only; W executed by the engine
  }
}

TEST(Hanayo, WaveScheduleValidatesAndExecutes) {
  const Schedule schedule = HanayoSchedule(4, 8);
  EXPECT_EQ(schedule.problem.virtual_chunks, 2);
  EXPECT_EQ(schedule.problem.placement, ChunkPlacement::kVShape);
  EXPECT_FALSE(schedule.problem.split_backward);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  const auto wave = Simulate(schedule, costs);
  // The greedy V-shape generation is a pessimistic approximation of the
  // handcrafted wave (see DESIGN.md); Table 3's closed form remains the
  // comparison source. Here: a coherent, bounded execution.
  EXPECT_GT(wave.bubble_ratio, 0.0);
  EXPECT_LT(wave.bubble_ratio, 0.5);
}

TEST(Hanayo, MemoryStaysInDappleClass) {
  const Schedule schedule = HanayoSchedule(4, 8);
  // ≤ 2p chunk-forwards of A/(2p) each ⇒ ≤ A (Table 3's bound).
  EXPECT_LE(sched::PeakRetainedForwards(schedule, 0), 2 * 4);
}

// Property sweep: every baseline validates over a parameter grid.
struct BaselineCase {
  int p, n;
};

class BaselineSweep : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineSweep, AllConstructionsValidate) {
  const auto [p, n] = GetParam();
  std::vector<Schedule> schedules;
  schedules.push_back(GPipeSchedule(p, n));
  schedules.push_back(OneFOneBSchedule(p, n));
  schedules.push_back(TeraPipeSchedule(p, 4, n));
  schedules.push_back(Zb1pSchedule(p, n));
  schedules.push_back(ZbvSchedule(p, n));
  schedules.push_back(ZbvCappedSchedule(p, n));
  schedules.push_back(HanayoSchedule(p, n));
  if (n % p == 0) {
    schedules.push_back(VppSchedule(p, 2, n));
  }
  // Every construction passes the invariant validator, activation cap
  // included, not just the structural checks its generator already ran.
  for (const Schedule& schedule : schedules) {
    SCOPED_TRACE(schedule.method);
    InvariantOptions invariants;
    if (schedule.method == "ZBV") {
      invariants.retained_cap.assign(static_cast<std::size_t>(p),
                                     ZbvMaxRetainedForwards(p, n));
    }
    ValidateScheduleInvariants(schedule, invariants);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BaselineSweep,
                         ::testing::Values(BaselineCase{2, 2}, BaselineCase{2, 8},
                                           BaselineCase{4, 4}, BaselineCase{4, 8},
                                           BaselineCase{4, 17}, BaselineCase{8, 8},
                                           BaselineCase{8, 32}, BaselineCase{16, 16},
                                           BaselineCase{8, 3}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.p) + "n" +
                                  std::to_string(info.param.n);
                         });

}  // namespace
}  // namespace mepipe::sched
