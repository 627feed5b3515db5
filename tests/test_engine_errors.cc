// Engine error paths: malformed schedules and activation budgets, which
// both entry points of the list interpreter (Simulate and the table
// replay PriceScheduleTable) must reject exactly as sched::ValidateSchedule
// does, and the budget-overflow reporting added for schedules whose
// deferred-W queue cannot free enough memory.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.h"
#include "sched/baselines.h"
#include "sim/engine.h"

namespace mepipe::sim {
namespace {

using sched::OpKind;
using sched::Schedule;

// One malformation per entry, each applied to a small valid schedule:
// 1F1B on 2 stages × 2 micros (stage 0 runs F0 F1 B0 B1, stage 1 runs
// F0 B0 F1 B1) or, for the deferred-W cases, ZB-1P on the same shape.
std::vector<std::pair<const char*, Schedule>> MalformedSchedules() {
  const Schedule base = sched::OneFOneBSchedule(2, 2);
  const Schedule deferred = sched::Zb1pSchedule(2, 2);
  std::vector<std::pair<const char*, Schedule>> cases;
  const auto add = [&cases](const char* name, Schedule schedule, auto&& mutate) {
    mutate(schedule);
    cases.emplace_back(name, std::move(schedule));
  };
  add("missing op", base, [](Schedule& s) { s.stage_ops[0].pop_back(); });
  add("extra op", base, [](Schedule& s) { s.stage_ops[0].push_back(s.stage_ops[0].front()); });
  add("duplicate op", base, [](Schedule& s) { s.stage_ops[0][3] = s.stage_ops[0][2]; });
  add("op on the wrong stage", base,
      [](Schedule& s) { std::swap(s.stage_ops[0][0], s.stage_ops[1][0]); });
  add("micro out of range", base, [](Schedule& s) { s.stage_ops[0][1].micro = 2; });
  add("negative micro", base, [](Schedule& s) { s.stage_ops[0][1].micro = -1; });
  add("slice out of range", base, [](Schedule& s) { s.stage_ops[1][2].slice = 1; });
  add("chunk out of range", base, [](Schedule& s) { s.stage_ops[1][2].chunk = 3; });
  add("gemm index on a static op", base, [](Schedule& s) { s.stage_ops[0][0].gemm = 0; });
  add("per-GEMM op in a program order", base,
      [](Schedule& s) { s.stage_ops[0][2].kind = OpKind::kWeightGradGemm; });
  add("wrong job tag", base, [](Schedule& s) { s.stage_ops[1][3].job = 1; });
  add("W listed in a deferred-W schedule", deferred,
      [](Schedule& s) { s.stage_ops[0].back().kind = OpKind::kWeightGrad; });
  add("deferred W without split backward", base, [](Schedule& s) { s.deferred_wgrad = true; });
  add("wrong stage count", base, [](Schedule& s) { s.stage_ops.pop_back(); });
  add("deadlock", base, [](Schedule& s) { std::swap(s.stage_ops[1][0], s.stage_ops[1][1]); });
  return cases;
}

TEST(EngineErrors, MalformedSchedulesThrowFromEveryEntryPoint) {
  const UniformCostModel costs(1.0, 2.0, 1.0, /*transfer=*/0.5, /*act_bytes=*/10);
  for (const auto& [name, schedule] : MalformedSchedules()) {
    EXPECT_THROW(sched::ValidateSchedule(schedule), CheckError) << name;
    EXPECT_THROW(Simulate(schedule, costs), CheckError) << name;
    EXPECT_THROW(PriceScheduleTable(schedule, costs), CheckError) << name;
  }
}

TEST(EngineErrors, MalformedBudgetsThrowFromBothEntryPoints) {
  const Schedule schedule = sched::Zb1pSchedule(2, 2);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.0, /*act_bytes=*/10);
  const std::vector<std::pair<const char*, std::vector<Bytes>>> budgets = {
      {"negative budget", {-1, 100}},
      {"too few entries", {100}},
      {"too many entries", {100, 100, 100}},
  };
  for (const auto& [name, budget] : budgets) {
    EngineOptions engine;
    engine.activation_budget = budget;
    TableOptions table;
    table.activation_budget = budget;
    EXPECT_THROW(Simulate(schedule, costs, engine), CheckError) << name;
    EXPECT_THROW(PriceScheduleTable(schedule, costs, table), CheckError) << name;
  }
}

TEST(EngineErrors, ZeroBudgetMeansUnbudgeted) {
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {0, 0};
  const SimResult result = Simulate(schedule, costs, options);
  EXPECT_EQ(result.budget_violations, 0);
  EXPECT_DOUBLE_EQ(result.makespan, Simulate(schedule, costs).makespan);
}

TEST(EngineErrors, OverflowRecordedWhenQueueCannotHelp) {
  // 1F1B without split backward has no deferred-W queue: a budget below
  // one activation can never be met. The engine must admit the ops and
  // report the violation instead of silently proceeding.
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {5, 5};
  const SimResult result = Simulate(schedule, costs, options);
  // Stage 0 retains two forwards (overflow 5 then 15); stage 1 releases
  // each backward before the next forward (overflow 5 twice).
  EXPECT_EQ(result.budget_violations, 4);
  EXPECT_EQ(result.stages[0].budget_violations, 2);
  EXPECT_EQ(result.stages[0].budget_overflow_bytes, 15);
  EXPECT_EQ(result.stages[1].budget_violations, 2);
  EXPECT_EQ(result.stages[1].budget_overflow_bytes, 5);
  // The timeline itself is unchanged — violations are bookkeeping.
  EXPECT_DOUBLE_EQ(result.makespan, Simulate(schedule, costs).makespan);
}

TEST(EngineErrors, StrictBudgetThrows) {
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {5, 5};
  options.strict_activation_budget = true;
  EXPECT_THROW(Simulate(schedule, costs, options), CheckError);
}

TEST(EngineErrors, SufficientBudgetReportsNoViolation) {
  // A zero-bubble schedule under a budget the deferred-W drain can honour
  // must stay violation-free.
  const auto schedule = sched::Zb1pSchedule(4, 8);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.0, /*act_bytes=*/1,
                               /*act_grad_bytes=*/1, /*wgrad_gemms=*/2);
  EngineOptions options;
  options.activation_budget = {100, 100, 100, 100};
  options.strict_activation_budget = true;  // would throw on any violation
  const SimResult result = Simulate(schedule, costs, options);
  EXPECT_EQ(result.budget_violations, 0);
  for (const StageMetrics& stage : result.stages) {
    EXPECT_EQ(stage.budget_overflow_bytes, 0);
  }
}

}  // namespace
}  // namespace mepipe::sim
