// Property-based tests of the discrete-event engine: invariants that
// must hold for every (schedule, cost, mode) combination — completeness
// of execution, time monotonicity, work conservation, memory-budget
// respect — swept over randomized problem shapes, and the parity of runs
// with and without a recorded timeline over the schedule corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/svpp.h"
#include "sched/baselines.h"
#include "sched/op.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/noise.h"
#include "schedule_corpus.h"
#include "sim_result_match.h"

namespace mepipe::sim {
namespace {

using sched::OpId;
using sched::OpIdHash;
using sched::OpKind;

struct Shape {
  int p, v, s, n;
  bool split;
};

Shape RandomShape(std::mt19937& rng) {
  std::uniform_int_distribution<int> p_dist(1, 6);
  std::uniform_int_distribution<int> v_dist(1, 2);
  std::uniform_int_distribution<int> s_dist(1, 4);
  std::uniform_int_distribution<int> n_dist(1, 7);
  std::uniform_int_distribution<int> b_dist(0, 1);
  return {p_dist(rng), v_dist(rng), s_dist(rng), n_dist(rng), b_dist(rng) == 1};
}

sched::Schedule MakeSvpp(const Shape& shape) {
  core::SvppOptions options;
  options.stages = shape.p;
  options.virtual_chunks = shape.v;
  options.slices = shape.s;
  options.micros = shape.n;
  options.split_backward = shape.split;
  return GenerateSvpp(options);
}

// Checks the invariants of one executed run.
void CheckInvariants(const sched::Schedule& schedule, const SimResult& result,
                     const CostModel& costs, bool expect_wgrad_items) {
  const auto& problem = schedule.problem;

  // 1. Every F and B executed exactly once; per-stage spans don't overlap.
  std::unordered_map<OpId, int, OpIdHash> seen;
  std::vector<std::vector<std::pair<Seconds, Seconds>>> by_stage(
      static_cast<std::size_t>(problem.stages));
  for (const OpSpan& span : result.timeline) {
    if (span.is_transfer) {
      continue;
    }
    EXPECT_LE(span.start, span.end);
    EXPECT_GE(span.start, 0.0);
    ++seen[span.op];
    by_stage[static_cast<std::size_t>(span.stage)].push_back({span.start, span.end});
  }
  for (int stage = 0; stage < problem.stages; ++stage) {
    for (const OpId& op : sched::StageOps(problem, stage)) {
      if (op.kind == OpKind::kWeightGrad) {
        continue;  // may run whole or as GEMMs; checked via release below
      }
      EXPECT_EQ(seen[op], 1) << ToString(op);
    }
    auto& spans = by_stage[static_cast<std::size_t>(stage)];
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-9)
          << "overlap on stage " << stage;
    }
  }

  // 2. Weight-gradient work is never lost: with split backward, each
  // (m,t,g) appears as a whole W or as its full GEMM set.
  if (expect_wgrad_items && problem.split_backward) {
    for (int stage = 0; stage < problem.stages; ++stage) {
      for (const OpId& op : sched::StageOps(problem, stage)) {
        if (op.kind != OpKind::kWeightGrad) {
          continue;
        }
        const int whole = seen[op];
        int gemms = 0;
        const int expected_gemms = costs.WeightGradGemmCount(op);
        for (int k = 0; k < expected_gemms; ++k) {
          gemms += seen[{OpKind::kWeightGradGemm, op.micro, op.slice, op.chunk, k}];
        }
        EXPECT_TRUE((whole == 1 && gemms == 0) || (whole == 0 && gemms == expected_gemms))
            << ToString(op) << " whole=" << whole << " gemms=" << gemms;
      }
    }
  }

  // 3. Work conservation: per-stage busy equals the sum of its spans.
  for (int stage = 0; stage < problem.stages; ++stage) {
    Seconds total = 0;
    for (const auto& [start, end] : by_stage[static_cast<std::size_t>(stage)]) {
      total += end - start;
    }
    EXPECT_NEAR(result.stages[static_cast<std::size_t>(stage)].busy, total, 1e-9);
  }

  // 4. Makespan covers every span; bubble ratios are in [0, 1).
  for (const OpSpan& span : result.timeline) {
    if (!span.is_transfer) {
      EXPECT_LE(span.end, result.makespan + 1e-9);
    }
  }
  for (const auto& stage : result.stages) {
    EXPECT_GE(stage.bubble_ratio, 0.0);
    EXPECT_LT(stage.bubble_ratio, 1.0);
  }
}

TEST(EngineProperties, RandomSvppShapes) {
  std::mt19937 rng(20250705);
  for (int trial = 0; trial < 40; ++trial) {
    const Shape shape = RandomShape(rng);
    const auto schedule = MakeSvpp(shape);
    const UniformCostModel costs(1.0, shape.split ? 1.0 : 2.0, 1.0, 0.05, 8, 3, 6);
    EngineOptions options;
    options.wgrad_mode = (trial % 3 == 0)   ? WgradMode::kImmediate
                         : (trial % 3 == 1) ? WgradMode::kFillWhole
                                            : WgradMode::kFillGemms;
    const SimResult result = Simulate(schedule, costs, options);
    CheckInvariants(schedule, result, costs, /*expect_wgrad_items=*/true);
  }
}

TEST(EngineProperties, RandomBaselineShapes) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    std::uniform_int_distribution<int> p_dist(1, 8);
    std::uniform_int_distribution<int> n_dist(1, 9);
    const int p = p_dist(rng);
    const int n = n_dist(rng);
    for (const auto& schedule :
         {sched::GPipeSchedule(p, n), sched::OneFOneBSchedule(p, n),
          sched::TeraPipeSchedule(p, 3, n), sched::Zb1pSchedule(p, n)}) {
      const UniformCostModel costs(1.0, 2.0, 1.0, 0.02, 4, 2, 3);
      const SimResult result = Simulate(schedule, costs);
      CheckInvariants(schedule, result, costs, /*expect_wgrad_items=*/true);
    }
  }
}

TEST(EngineProperties, SingleStagePipelineHasNoTransfers) {
  const auto schedule = sched::OneFOneBSchedule(1, 4);
  const UniformCostModel costs(1.0, 2.0, 0.0, 5.0);  // huge transfer cost
  const SimResult result = Simulate(schedule, costs);
  for (const OpSpan& span : result.timeline) {
    EXPECT_FALSE(span.is_transfer);
  }
  EXPECT_DOUBLE_EQ(result.makespan, 4 * 3.0);
  EXPECT_NEAR(result.bubble_ratio, 0.0, 1e-12);
}

TEST(EngineProperties, BudgetCapsPeakMemory) {
  // With an activation budget, the measured peak never exceeds
  // budget + one op's allocation (the op that triggered the drain).
  // The budget governs deferred-W retention; the schedule's own warmup
  // depth is the §4.5 planner's responsibility, so use the minimal
  // variant (f = v·s) to isolate the engine's contribution.
  core::SvppOptions options;
  options.stages = 4;
  options.slices = 2;
  options.micros = 8;
  options.max_inflight = core::MinInflight(options);
  const auto schedule = GenerateSvpp(options);
  const Bytes act = 10;
  const Bytes grad = 4;
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.02, act, grad, 4);
  for (Bytes budget : {Bytes{30}, Bytes{60}, Bytes{120}}) {
    EngineOptions engine;
    engine.wgrad_mode = WgradMode::kFillGemms;
    engine.activation_budget.assign(4, budget);
    const SimResult result = Simulate(schedule, costs, engine);
    EXPECT_LE(result.peak_activation, budget + act + grad) << "budget " << budget;
  }
}

TEST(EngineProperties, TighterBudgetNeverFaster) {
  core::SvppOptions options;
  options.stages = 4;
  options.slices = 2;
  options.micros = 8;
  const auto schedule = GenerateSvpp(options);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.02, 10, 4, 4);
  Seconds previous = 1e300;
  for (Bytes budget : {Bytes{28}, Bytes{56}, Bytes{112}, Bytes{1000}}) {
    EngineOptions engine;
    engine.activation_budget.assign(4, budget);
    const Seconds makespan = Simulate(schedule, costs, engine).makespan;
    EXPECT_LE(makespan, previous + 1e-9) << "budget " << budget;
    previous = makespan;
  }
}

TEST(EngineProperties, NoisyRunsPreserveInvariants) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Shape shape = RandomShape(rng);
    const auto schedule = MakeSvpp(shape);
    const UniformCostModel base(1.0, 1.0, 1.0, 0.05, 8, 3, 6);
    const NoisyCostModel noisy(base, 0.05, static_cast<std::uint64_t>(trial));
    const SimResult result = Simulate(schedule, noisy);
    CheckInvariants(schedule, result, noisy, /*expect_wgrad_items=*/true);
  }
}

TEST(EngineProperties, TimelineRecordingChangesNoOtherField) {
  // Transfers, DP buckets and multi-GEMM W all cost time, so link
  // serialization, fabric sharing and per-GEMM fill all run; the fault
  // plan dilates stage 1 and fails stage 0 at t=6.
  const UniformCostModel costs(1.0, 2.0, 0.7, /*transfer=*/0.25, /*act_bytes=*/10,
                               /*act_grad_bytes=*/3, /*wgrad_gemms=*/3, /*dp_sync=*/0.8);
  FaultPlan faults;
  faults.stragglers.push_back({/*stage=*/1, /*begin=*/2.0, /*end=*/9.0, /*slowdown=*/1.5});
  faults.fail_stops.push_back({/*stage=*/0, /*time=*/6.0, /*detection_delay=*/0.5,
                               /*restart_time=*/1.0});
  struct Row {
    const char* label;
    bool dp_overlap;
    bool dp_link_shared;
    bool faulted;
    bool memory_timeline;
  };
  const Row rows[] = {
      {"clean", false, false, false, false},
      {"dp", true, false, false, false},
      {"dp shared", true, true, false, false},
      {"faulted", false, false, true, false},
      {"dp faulted", true, false, true, false},
      {"dp shared faulted memory", true, true, true, true},
  };
  const std::pair<WgradMode, const char*> modes[] = {{WgradMode::kImmediate, "immediate"},
                                                     {WgradMode::kFillWhole, "fill_whole"},
                                                     {WgradMode::kFillGemms, "fill_gemms"}};
  // DP comm-stream time summed over stages; fabric sharing can only add.
  const auto dp_sync_time = [](const SimResult& result) {
    Seconds total = 0;
    for (const StageMetrics& stage : result.stages) {
      total += stage.dp_sync;
    }
    return total;
  };
  int stretched = 0;  // runs whose DP sync fabric sharing stretched
  for (const CorpusEntry& entry : ScheduleCorpus()) {
    for (const auto& [mode, mode_label] : modes) {
      Seconds unshared_dp_sync = 0;
      for (const Row& row : rows) {
        EngineOptions kept_options;
        kept_options.wgrad_mode = mode;
        kept_options.dp_overlap = row.dp_overlap;
        kept_options.dp_link_shared = row.dp_link_shared;
        if (row.faulted) {
          kept_options.fault_plan = faults;
        }
        kept_options.record_memory_timeline = row.memory_timeline;
        EngineOptions dropped_options = kept_options;
        dropped_options.record_timeline = false;
        const SimResult kept = Simulate(entry.schedule, costs, kept_options);
        const SimResult dropped = Simulate(entry.schedule, costs, dropped_options);

        const std::string label = entry.shape + " " + mode_label + " " + row.label;
        ExpectSameResult(dropped, kept, label);
        EXPECT_FALSE(kept.timeline.empty()) << label;
        EXPECT_TRUE(dropped.timeline.empty()) << label;
        EXPECT_EQ(dropped.timeline.capacity(), 0u) << label;
        if (row.dp_overlap && !row.faulted) {
          if (row.dp_link_shared) {
            stretched += dp_sync_time(kept) > unshared_dp_sync ? 1 : 0;
          } else {
            unshared_dp_sync = dp_sync_time(kept);
          }
        }
      }
    }
  }
  EXPECT_GT(stretched, 0);
}

}  // namespace
}  // namespace mepipe::sim
