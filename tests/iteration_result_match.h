// Bit-for-bit comparison of two IterationResults on every field but the
// engine timeline. Shared by the suites that pin a planner winner or a
// handed-in build against a fresh run.
#ifndef MEPIPE_TESTS_ITERATION_RESULT_MATCH_H_
#define MEPIPE_TESTS_ITERATION_RESULT_MATCH_H_

#include <gtest/gtest.h>

#include <string>

#include "core/iteration.h"
#include "sched/serialize.h"
#include "sim_result_match.h"

namespace mepipe::core {

// Every field of two winners but the engine timeline, bit for bit.
inline void ExpectSameWinner(const IterationResult& a, const IterationResult& b,
                             const std::string& label) {
  EXPECT_EQ(a.strategy.ToString(), b.strategy.ToString()) << label;
  EXPECT_EQ(a.feasible, b.feasible) << label;
  EXPECT_EQ(a.note, b.note) << label;
  EXPECT_EQ(a.micros, b.micros) << label;
  EXPECT_EQ(a.pipeline_time, b.pipeline_time) << label;
  EXPECT_EQ(a.mitigation.rebalanced, b.mitigation.rebalanced) << label;
  EXPECT_EQ(a.mitigation.unmitigated_pipeline_time, b.mitigation.unmitigated_pipeline_time)
      << label;
  EXPECT_EQ(a.dp.overlapped, b.dp.overlapped) << label;
  EXPECT_EQ(a.dp.serialized, b.dp.serialized) << label;
  EXPECT_EQ(a.dp.hidden, b.dp.hidden) << label;
  EXPECT_EQ(a.dp.exposed, b.dp.exposed) << label;
  EXPECT_EQ(a.dp_sync_time, b.dp_sync_time) << label;
  EXPECT_EQ(a.iteration_time, b.iteration_time) << label;
  EXPECT_EQ(a.bubble_ratio, b.bubble_ratio) << label;
  EXPECT_EQ(a.static_memory, b.static_memory) << label;
  EXPECT_EQ(a.peak_activation, b.peak_activation) << label;
  EXPECT_EQ(a.peak_memory, b.peak_memory) << label;
  EXPECT_EQ(a.checkpoint_shard, b.checkpoint_shard) << label;
  EXPECT_EQ(a.checkpoint_state, b.checkpoint_state) << label;
  EXPECT_EQ(a.goodput.priced, b.goodput.priced) << label;
  EXPECT_EQ(a.goodput.checkpoint_interval, b.goodput.checkpoint_interval) << label;
  EXPECT_EQ(a.goodput.checkpoint_write_cost, b.goodput.checkpoint_write_cost) << label;
  EXPECT_EQ(a.goodput.goodput, b.goodput.goodput) << label;
  EXPECT_EQ(a.goodput.effective_iteration_time, b.goodput.effective_iteration_time) << label;
  EXPECT_EQ(a.per_gpu_flops, b.per_gpu_flops) << label;
  EXPECT_EQ(a.mfu, b.mfu) << label;
  ExpectSameResult(a.sim, b.sim, label);
  ASSERT_EQ(a.schedule.stage_ops.empty(), b.schedule.stage_ops.empty()) << label;
  if (!a.schedule.stage_ops.empty()) {
    EXPECT_EQ(sched::SerializeSchedule(a.schedule), sched::SerializeSchedule(b.schedule))
        << label;
  }
  EXPECT_EQ(a.activation_budget, b.activation_budget) << label;
}

}  // namespace mepipe::core

#endif  // MEPIPE_TESTS_ITERATION_RESULT_MATCH_H_
