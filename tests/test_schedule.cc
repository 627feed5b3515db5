// Tests for the schedule container and its validation (sched/schedule).
#include "sched/schedule.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "sched/baselines.h"
#include "sched/validate.h"

namespace mepipe::sched {
namespace {

Schedule TwoStageOneMicro() {
  Schedule schedule;
  schedule.problem.stages = 2;
  schedule.problem.micros = 1;
  schedule.method = "hand";
  schedule.stage_ops = {
      {{OpKind::kForward, 0, 0, 0}, {OpKind::kBackward, 0, 0, 0}},
      {{OpKind::kForward, 0, 0, 1}, {OpKind::kBackward, 0, 0, 1}},
  };
  return schedule;
}

TEST(Schedule, HandBuiltValidates) {
  EXPECT_NO_THROW(ValidateSchedule(TwoStageOneMicro()));
  // The invariant validator agrees with the structural check.
  EXPECT_TRUE(CheckScheduleInvariants(TwoStageOneMicro()).ok());
}

TEST(Schedule, InvariantValidatorFlagsCapOverrun) {
  // GPipe retains all n forwards; a cap below n is a reported violation
  // on every stage, and the throwing wrapper throws.
  const Schedule schedule = GPipeSchedule(3, 7);
  InvariantOptions options;
  options.retained_cap = {3, 3, 3};
  const InvariantReport report = CheckScheduleInvariants(schedule, options);
  EXPECT_EQ(report.violations.size(), 3u);
  EXPECT_EQ(report.violations.front().invariant, "activation-cap");
  EXPECT_THROW(ValidateScheduleInvariants(schedule, options), CheckError);
  options.retained_cap = {7, 7, 7};
  EXPECT_TRUE(CheckScheduleInvariants(schedule, options).ok());
  // A 0 entry marks the stage unbudgeted.
  options.retained_cap = {0, 0, 0};
  EXPECT_TRUE(CheckScheduleInvariants(schedule, options).ok());
}

TEST(Schedule, MissingOpRejected) {
  Schedule schedule = TwoStageOneMicro();
  schedule.stage_ops[0].pop_back();
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, DuplicateOpRejected) {
  Schedule schedule = TwoStageOneMicro();
  schedule.stage_ops[0][1] = schedule.stage_ops[0][0];
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, OpOnWrongStageRejected) {
  Schedule schedule = TwoStageOneMicro();
  std::swap(schedule.stage_ops[0], schedule.stage_ops[1]);
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, DeadlockingOrderRejected) {
  // B before its own F on the last stage can never execute.
  Schedule schedule = TwoStageOneMicro();
  std::swap(schedule.stage_ops[1][0], schedule.stage_ops[1][1]);
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, DeferredWgradRequiresSplitBackward) {
  Schedule schedule = TwoStageOneMicro();
  schedule.deferred_wgrad = true;  // but split_backward is false
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, FirstBackwardIndex) {
  const Schedule schedule = OneFOneBSchedule(4, 8);
  EXPECT_EQ(FirstBackwardIndex(schedule, 0), 4u);
  EXPECT_EQ(FirstBackwardIndex(schedule, 3), 1u);
}

TEST(Schedule, FirstBackwardIndexNoBackward) {
  Schedule schedule = TwoStageOneMicro();
  schedule.stage_ops[0] = {{OpKind::kForward, 0, 0, 0}};
  EXPECT_EQ(FirstBackwardIndex(schedule, 0), 1u);
}

TEST(Schedule, PeakRetainedForwardsGPipeEqualsMicros) {
  const Schedule schedule = GPipeSchedule(3, 7);
  for (int stage = 0; stage < 3; ++stage) {
    EXPECT_EQ(PeakRetainedForwards(schedule, stage), 7);
  }
}

TEST(Schedule, PeakRetainedReleasesOnWWhenSplitStatic) {
  // A split schedule with static W ops releases on W, not B.
  Schedule schedule;
  schedule.problem.stages = 1;
  schedule.problem.micros = 2;
  schedule.problem.split_backward = true;
  schedule.method = "hand-split";
  schedule.stage_ops = {{
      {OpKind::kForward, 0, 0, 0},
      {OpKind::kForward, 1, 0, 0},
      {OpKind::kBackward, 1, 0, 0},
      {OpKind::kBackward, 0, 0, 0},
      {OpKind::kWeightGrad, 1, 0, 0},
      {OpKind::kWeightGrad, 0, 0, 0},
  }};
  ValidateSchedule(schedule);
  EXPECT_EQ(PeakRetainedForwards(schedule, 0), 2);
}

TEST(Schedule, OpIdPrinting) {
  EXPECT_EQ(ToString(OpId{OpKind::kForward, 1, 2, 3}), "F(m=1,t=2,g=3)");
  EXPECT_EQ(ToString(OpId{OpKind::kWeightGradGemm, 0, 1, 2, 5}), "Wg(m=0,t=1,g=2,k=5)");
}

TEST(Schedule, OpIdHashDistinguishesFields) {
  OpIdHash hash;
  const OpId a{OpKind::kForward, 1, 2, 3};
  OpId b = a;
  b.slice = 3;
  EXPECT_NE(hash(a), hash(b));
  b = a;
  b.kind = OpKind::kBackward;
  EXPECT_NE(hash(a), hash(b));
}

}  // namespace
}  // namespace mepipe::sched
