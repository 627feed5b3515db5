// Bit-for-bit comparison of two engine results on every field except the
// per-op timeline: the summary fields Simulate and PriceScheduleTable
// both report, the DP accounting, the fault windows and the memory
// series. Shared by the suites that pin one kernel path against another.
#ifndef MEPIPE_TESTS_SIM_RESULT_MATCH_H_
#define MEPIPE_TESTS_SIM_RESULT_MATCH_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "sim/engine.h"

namespace mepipe {

inline void ExpectSameResult(const sim::SimResult& a, const sim::SimResult& b,
                             const std::string& label) {
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.bubble_ratio, b.bubble_ratio) << label;
  EXPECT_EQ(a.peak_activation, b.peak_activation) << label;
  EXPECT_EQ(a.budget_violations, b.budget_violations) << label;
  ASSERT_EQ(a.stages.size(), b.stages.size()) << label;
  for (std::size_t stage = 0; stage < b.stages.size(); ++stage) {
    const sim::StageMetrics& x = a.stages[stage];
    const sim::StageMetrics& y = b.stages[stage];
    EXPECT_EQ(x.busy, y.busy) << label << " stage " << stage;
    EXPECT_EQ(x.peak_activation, y.peak_activation) << label << " stage " << stage;
    EXPECT_EQ(x.bubble_ratio, y.bubble_ratio) << label << " stage " << stage;
    EXPECT_EQ(x.warmup_idle, y.warmup_idle) << label << " stage " << stage;
    EXPECT_EQ(x.steady_idle, y.steady_idle) << label << " stage " << stage;
    EXPECT_EQ(x.drain_idle, y.drain_idle) << label << " stage " << stage;
    EXPECT_EQ(x.budget_violations, y.budget_violations) << label << " stage " << stage;
    EXPECT_EQ(x.budget_overflow_bytes, y.budget_overflow_bytes) << label << " stage " << stage;
    EXPECT_EQ(x.dp_sync, y.dp_sync) << label << " stage " << stage;
  }
  EXPECT_EQ(a.dp.serialized, b.dp.serialized) << label;
  EXPECT_EQ(a.dp.hidden, b.dp.hidden) << label;
  EXPECT_EQ(a.dp.exposed, b.dp.exposed) << label;
  EXPECT_EQ(a.dp.last_end, b.dp.last_end) << label;
  EXPECT_EQ(a.dp.buckets, b.dp.buckets) << label;
  ASSERT_EQ(a.fault_spans.size(), b.fault_spans.size()) << label;
  for (std::size_t i = 0; i < b.fault_spans.size(); ++i) {
    const sim::FaultSpan& x = a.fault_spans[i];
    const sim::FaultSpan& y = b.fault_spans[i];
    EXPECT_EQ(x.kind, y.kind) << label << " fault span " << i;
    EXPECT_EQ(x.stage, y.stage) << label << " fault span " << i;
    EXPECT_EQ(x.from, y.from) << label << " fault span " << i;
    EXPECT_EQ(x.to, y.to) << label << " fault span " << i;
    EXPECT_EQ(x.begin, y.begin) << label << " fault span " << i;
    EXPECT_EQ(x.end, y.end) << label << " fault span " << i;
    EXPECT_EQ(x.label, y.label) << label << " fault span " << i;
  }
  ASSERT_EQ(a.memory_timeline.size(), b.memory_timeline.size()) << label;
  for (std::size_t stage = 0; stage < b.memory_timeline.size(); ++stage) {
    const auto& x = a.memory_timeline[stage];
    const auto& y = b.memory_timeline[stage];
    ASSERT_EQ(x.size(), y.size()) << label << " memory series " << stage;
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(x[i].time, y[i].time) << label << " memory series " << stage << " point " << i;
      EXPECT_EQ(x[i].bytes, y[i].bytes) << label << " memory series " << stage << " point " << i;
    }
  }
}

}  // namespace mepipe

#endif  // MEPIPE_TESTS_SIM_RESULT_MATCH_H_
