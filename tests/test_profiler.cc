// Tests for the §6 profiler component (core/profiler).
#include "core/profiler.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/check.h"
#include "core/svpp.h"
#include "sched/baselines.h"
#include "sim/cost_model.h"

namespace mepipe::core {
namespace {

using sched::OpKind;

sim::SimResult RunSample() {
  const auto schedule = sched::OneFOneBSchedule(3, 4);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.1);
  return Simulate(schedule, costs);
}

TEST(Profiler, CapturesDurations) {
  const Profile profile = Profile::FromResult(RunSample());
  const OpStats* f = profile.Find(OpKind::kForward, 0, 0);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->count, 4);  // 4 micros through chunk 0
  EXPECT_DOUBLE_EQ(f->mean(), 1.0);
  EXPECT_DOUBLE_EQ(f->min, 1.0);
  EXPECT_DOUBLE_EQ(f->max, 1.0);
  const OpStats* b = profile.Find(OpKind::kBackward, 0, 2);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->mean(), 2.0);
}

TEST(Profiler, MeanOfKind) {
  const Profile profile = Profile::FromResult(RunSample());
  EXPECT_DOUBLE_EQ(profile.MeanOf(OpKind::kForward), 1.0);
  EXPECT_DOUBLE_EQ(profile.MeanOf(OpKind::kBackward), 2.0);
  EXPECT_DOUBLE_EQ(profile.MeanOf(OpKind::kWeightGrad), 0.0);  // none ran
}

TEST(Profiler, IgnoresTransfers) {
  const Profile profile = Profile::FromResult(RunSample());
  // 3 stages × {F,B} keys only.
  EXPECT_EQ(profile.distinct_ops(), 6u);
}

TEST(Profiler, ReportMentionsEveryKind) {
  const std::string report = Profile::FromResult(RunSample()).Report();
  EXPECT_NE(report.find("F "), std::string::npos);
  EXPECT_NE(report.find("B "), std::string::npos);
  EXPECT_NE(report.find("ms"), std::string::npos);
}

TEST(Profiler, RejectsARunRecordedWithoutATimeline) {
  // An empty profile would make ProfiledCostModel fall back to the
  // analytic model for every op without saying so.
  const auto schedule = sched::OneFOneBSchedule(3, 4);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.1);
  sim::EngineOptions untimed;
  untimed.record_timeline = false;
  const std::pair<const char*, sim::SimResult> rows[] = {
      {"table replay", sim::PriceScheduleTable(schedule, costs)},
      {"record_timeline off", sim::Simulate(schedule, costs, untimed)},
  };
  for (const auto& [label, result] : rows) {
    try {
      Profile::FromResult(result);
      ADD_FAILURE() << label << ": no CheckError";
    } catch (const CheckError& err) {
      EXPECT_NE(std::string(err.what()).find("record_timeline"), std::string::npos) << label;
    }
  }
}

TEST(ProfiledCostModel, ReplaysMeasurements) {
  const Profile profile = Profile::FromResult(RunSample());
  const sim::UniformCostModel fallback(9.0, 9.0, 9.0, 0.5, 7, 3, 2);
  const ProfiledCostModel replay(profile, fallback);
  // Seen ops use the measured mean.
  EXPECT_DOUBLE_EQ(replay.ComputeTime({OpKind::kForward, 0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(replay.ComputeTime({OpKind::kBackward, 2, 0, 1}), 2.0);
  // Unseen ops (W) and non-compute quantities use the fallback.
  EXPECT_DOUBLE_EQ(replay.ComputeTime({OpKind::kWeightGrad, 0, 0, 0}), 9.0);
  EXPECT_DOUBLE_EQ(replay.TransferTime({OpKind::kForward, 0, 0, 0}), 0.5);
  EXPECT_EQ(replay.ActivationBytes({OpKind::kForward, 0, 0, 0}), 7);
  EXPECT_EQ(replay.ActGradBytes({OpKind::kBackward, 0, 0, 0}), 3);
  EXPECT_EQ(replay.WeightGradGemmCount({OpKind::kWeightGrad, 0, 0, 0}), 2);
}

TEST(ProfiledCostModel, ClosesTheLoop) {
  // Simulate with analytic costs, profile, re-simulate with the profiled
  // model: identical makespan (the §6 profiler→scheduler→engine cycle).
  core::SvppOptions options;
  options.stages = 4;
  options.slices = 2;
  options.micros = 6;
  const auto schedule = GenerateSvpp(options);
  const sim::UniformCostModel analytic(1.0, 1.0, 1.0, 0.0);
  const auto first = Simulate(schedule, analytic);
  const ProfiledCostModel replay(Profile::FromResult(first), analytic);
  const auto second = Simulate(schedule, replay);
  EXPECT_NEAR(second.makespan, first.makespan, 1e-9);
}

}  // namespace
}  // namespace mepipe::core
