// Engine error paths: malformed schedules and activation budgets, which
// both entry points of the list interpreter (Simulate and the table
// replay PriceScheduleTable) must reject exactly as sched::ValidateSchedule
// does — pinned by a table and by a differential fuzz over mutated corpus
// schedules — and the budget-overflow reporting added for schedules whose
// deferred-W queue cannot free enough memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sched/baselines.h"
#include "sched/dependency.h"
#include "sched/validate.h"
#include "sim/engine.h"
#include "schedule_corpus.h"

namespace mepipe::sim {
namespace {

using sched::OpId;
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

// The fuzz oracle: a copy of the validator ValidateSchedule ran before
// its linear arena pass. It sorts a copy of each stage's list against a
// sorted StageOps copy, then runs the executability pass through a hash
// set and DependenciesOf.
bool ReferenceAccepts(const Schedule& schedule) {
  const sched::PipelineProblem& problem = schedule.problem;
  try {
    problem.Validate();
  } catch (const CheckError&) {
    return false;
  }
  if (static_cast<int>(schedule.stage_ops.size()) != problem.stages ||
      (schedule.deferred_wgrad && !problem.split_backward)) {
    return false;
  }
  for (int stage = 0; stage < problem.stages; ++stage) {
    std::vector<OpId> expected = sched::StageOps(problem, stage, schedule.job);
    if (schedule.deferred_wgrad) {
      std::erase_if(expected, [](const OpId& op) { return op.kind == OpKind::kWeightGrad; });
    }
    std::vector<OpId> actual = schedule.stage_ops[static_cast<std::size_t>(stage)];
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      return false;
    }
  }
  std::unordered_set<OpId, sched::OpIdHash> done;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(problem.stages), 0);
  std::size_t remaining = 0;
  for (const auto& ops : schedule.stage_ops) {
    remaining += ops.size();
  }
  bool progressed = true;
  while (progressed && remaining > 0) {
    progressed = false;
    for (int stage = 0; stage < problem.stages; ++stage) {
      auto& index = cursor[static_cast<std::size_t>(stage)];
      const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
      while (index < ops.size()) {
        const OpId& op = ops[index];
        bool ready = true;
        for (const sched::Dep& dep : sched::DependenciesOf(problem, op)) {
          ready = ready && done.contains(dep.op);
        }
        if (!ready) {
          break;
        }
        done.insert(op);
        ++index;
        --remaining;
        progressed = true;
      }
    }
  }
  return remaining == 0;
}

// One seeded mutation of `schedule`; `kind` picks which of the nine.
void Mutate(Schedule& schedule, int kind, SplitMixRng& rng) {
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.NextU64() % size);
  };
  const std::size_t stage = pick(schedule.stage_ops.size());
  auto& ops = schedule.stage_ops[stage];
  const std::size_t at = pick(ops.size());
  const sched::PipelineProblem& problem = schedule.problem;
  switch (kind) {
    case 0:  // drop an op
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:  // list an op twice: as an extra entry, or in another op's place
      if (rng.NextU64() % 2 == 0) {
        ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(pick(ops.size() + 1)), ops[at]);
      } else {
        ops[pick(ops.size())] = ops[at];
      }
      break;
    case 2: {  // swap two ops of one stage, half the time neighbours
      const std::size_t other = rng.NextU64() % 2 == 0 ? pick(ops.size())
                                                       : std::min(at + 1, ops.size() - 1);
      std::swap(ops[at], ops[other]);
      break;
    }
    case 3: {  // move an op to the next stage
      const OpId op = ops[at];
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(at));
      auto& to = schedule.stage_ops[(stage + 1) % schedule.stage_ops.size()];
      to.insert(to.begin() + static_cast<std::ptrdiff_t>(pick(to.size() + 1)), op);
      break;
    }
    case 4: {  // an index just out of range, above or below
      const bool below = rng.NextU64() % 2 == 0;
      switch (rng.NextU64() % 3) {
        case 0:
          ops[at].micro = below ? -1 : problem.micros;
          break;
        case 1:
          ops[at].slice = below ? -1 : problem.slices;
          break;
        default:
          ops[at].chunk = below ? -1 : problem.num_chunks();
          break;
      }
      break;
    }
    case 5:  // a GEMM index on a whole op
      ops[at].gemm = static_cast<int>(rng.NextU64() % 4);
      break;
    case 6:  // another job's tag
      ops[at].job = schedule.job + 1;
      break;
    case 7:
      schedule.deferred_wgrad = !schedule.deferred_wgrad;
      break;
    default:
      std::reverse(ops.begin(), ops.end());
      break;
  }
}

// Differential fuzz: seeded mutations of the generated-schedule corpus.
// ValidateSchedule, both engine entry points, the invariant checker and
// the reference validator must all accept or all reject each mutant.
TEST(EngineErrors, ValidationFuzzAgreesWithReferenceValidator) {
  const UniformCostModel costs(1.0, 2.0, 1.0, /*transfer=*/0.5, /*act_bytes=*/10);
  const auto accepts = [](auto&& run) {
    try {
      run();
      return true;
    } catch (const CheckError&) {
      return false;
    }
  };
  SplitMixRng rng(20261017);
  int accepted = 0;
  int rejected = 0;
  for (const CorpusEntry& entry : ScheduleCorpus()) {
    for (int mutant = 0; mutant < 12; ++mutant) {
      Schedule schedule = entry.schedule;
      const int kind = mutant < 9 ? mutant : static_cast<int>(rng.NextU64() % 9);
      Mutate(schedule, kind, rng);
      const bool expected = ReferenceAccepts(schedule);
      SCOPED_TRACE(entry.shape + ", mutation " + std::to_string(kind));
      EXPECT_EQ(accepts([&] { sched::ValidateSchedule(schedule); }), expected);
      EXPECT_EQ(accepts([&] { Simulate(schedule, costs); }), expected);
      EXPECT_EQ(accepts([&] { PriceScheduleTable(schedule, costs); }), expected);
      // The invariant checker runs the same two passes, reporting only
      // what they can find.
      const sched::InvariantReport report = sched::CheckScheduleInvariants(schedule);
      EXPECT_EQ(report.ok(), expected) << report.Summary();
      for (const sched::Violation& violation : report.violations) {
        EXPECT_TRUE(violation.invariant == "multiset" || violation.invariant == "executable")
            << report.Summary();
      }
      ++(expected ? accepted : rejected);
    }
  }
  // The mutations must reach both verdicts for the comparison to bite.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
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
