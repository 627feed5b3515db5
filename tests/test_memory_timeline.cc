// Tests for memory-timeline recording (sim engine option) and its
// exports (trace/memory_timeline).
#include "trace/memory_timeline.h"

#include <gtest/gtest.h>

#include <fstream>

#include "common/check.h"
#include "sched/baselines.h"
#include "sim/cost_model.h"

namespace mepipe::trace {
namespace {

sim::SimResult RunRecorded(bool record = true) {
  const auto schedule = sched::OneFOneBSchedule(3, 4);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  sim::EngineOptions options;
  options.record_memory_timeline = record;
  return Simulate(schedule, costs, options);
}

// ZB-1P under per-GEMM W fills with a budget tight enough that W drains
// free memory before most forwards: the path where the series falls
// between the ops of the program order.
sim::SimResult RunBudgetedZb1p() {
  const auto schedule = sched::Zb1pSchedule(3, 6);
  const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.0, /*act_bytes=*/10,
                                    /*act_grad_bytes=*/4, /*wgrad_gemms=*/3);
  sim::EngineOptions options;
  options.wgrad_mode = sim::WgradMode::kFillGemms;
  options.activation_budget = {35, 35, 35};
  options.record_memory_timeline = true;
  return Simulate(schedule, costs, options);
}

TEST(MemoryTimeline, RecordedWhenRequested) {
  for (const auto& result : {RunRecorded(), RunBudgetedZb1p()}) {
    ASSERT_EQ(result.memory_timeline.size(), 3u);
    for (const auto& series : result.memory_timeline) {
      EXPECT_FALSE(series.empty());
      // Times strictly increase; bytes are non-negative.
      for (std::size_t i = 0; i < series.size(); ++i) {
        EXPECT_GE(series[i].bytes, 0);
        if (i > 0) {
          EXPECT_GT(series[i].time, series[i - 1].time);
        }
      }
      // The iteration ends with all activations released.
      EXPECT_EQ(series.back().bytes, 0);
    }
  }
}

TEST(MemoryTimeline, SeriesPeakMatchesMetrics) {
  for (const auto& result : {RunRecorded(), RunBudgetedZb1p()}) {
    for (std::size_t stage = 0; stage < 3; ++stage) {
      Bytes peak = 0;
      for (const auto& point : result.memory_timeline[stage]) {
        peak = std::max(peak, point.bytes);
      }
      EXPECT_EQ(peak, result.stages[stage].peak_activation) << "stage " << stage;
    }
  }
}

TEST(MemoryTimeline, NotRecordedByDefault) {
  const auto result = RunRecorded(false);
  EXPECT_TRUE(result.memory_timeline.empty());
}

TEST(MemoryTimeline, CsvShape) {
  const std::string csv = MemoryTimelineCsv(RunRecorded());
  EXPECT_EQ(csv.rfind("stage,time_s,bytes\n", 0), 0u);
  EXPECT_NE(csv.find("\n0,"), std::string::npos);
  EXPECT_NE(csv.find("\n2,"), std::string::npos);
}

TEST(MemoryTimeline, CsvRequiresRecording) {
  EXPECT_THROW(MemoryTimelineCsv(RunRecorded(false)), CheckError);
}

TEST(MemoryTimeline, FileExport) {
  const std::string path = ::testing::TempDir() + "/mem_timeline.csv";
  WriteMemoryTimelineCsv(RunRecorded(), path);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header, "stage,time_s,bytes");
  std::remove(path.c_str());
}

TEST(MemoryTimeline, Sparklines) {
  const std::string art = RenderMemorySparklines(RunRecorded(), 60);
  EXPECT_NE(art.find("stage 0 |"), std::string::npos);
  EXPECT_NE(art.find("stage 2 |"), std::string::npos);
  EXPECT_NE(art.find("peak"), std::string::npos);
  // Stage 0 holds the deepest warmup: its row must contain the peak glyph.
  const std::size_t row0 = art.find("stage 0");
  const std::size_t row1 = art.find("stage 1");
  EXPECT_NE(art.substr(row0, row1 - row0).find('#'), std::string::npos);
}

}  // namespace
}  // namespace mepipe::trace
