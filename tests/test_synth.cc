// Differential, property, and golden tests for the budgeted schedule
// synthesizer (sched/synth.h): the budget extremes must recover the
// handcrafted zoo, every synthesized schedule must satisfy the full
// invariant battery under its declared budget, and the ZBV-shape lower
// bound must be met exactly.
#include "sched/synth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sched/baselines.h"
#include "sched/serialize.h"
#include "sched/validate.h"
#include "sched/zbv.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "golden.h"

namespace mepipe::sched {
namespace {

PipelineProblem MakeProblem(int p, int v, int n, bool split,
                            ChunkPlacement placement = ChunkPlacement::kRoundRobin) {
  PipelineProblem problem;
  problem.stages = p;
  problem.virtual_chunks = v;
  problem.micros = n;
  problem.split_backward = split;
  problem.placement = placement;
  return problem;
}

// Uniform-cost ZBV shape: v=2, split backward, V-shape placement,
// F = B = W = 1, zero transfer.
SynthOptions ZbvShapeOptions(int p, int n) {
  SynthOptions options;
  options.transfer_time = 0.0;
  options.budget = SynthZbvBudget(p, n);
  return options;
}

TEST(Synth, ZbvExtremeReachesChunkChainBound) {
  // Under uniform costs the admissible bound is exactly 6n+(p-1)
  // chunk-op units and the synthesizer must land on it.
  for (int p : {4, 8}) {
    for (int n : {p, 2 * p, 16}) {
      const PipelineProblem problem = MakeProblem(p, 2, n, true, ChunkPlacement::kVShape);
      const SynthOptions options = ZbvShapeOptions(p, n);
      EXPECT_NEAR(SynthChunkChainLowerBound(problem, options), 6.0 * n + (p - 1), 1e-9)
          << "p=" << p << " n=" << n;
      SynthReport report;
      const Schedule schedule = SynthesizeSchedule(problem, options, &report);
      EXPECT_NEAR(report.makespan, 6.0 * n + (p - 1), 1e-9) << "p=" << p << " n=" << n;
      EXPECT_TRUE(report.reached_lower_bound) << "p=" << p << " n=" << n;
      const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.0);
      EXPECT_NEAR(Simulate(schedule, costs).makespan, 6.0 * n + (p - 1), 1e-9)
          << "p=" << p << " n=" << n;
    }
  }
}

TEST(Synth, ZbvExtremeSchedulesTheHandcraftedOpMultiset) {
  for (int p : {4, 8}) {
    const int n = 2 * p;
    const Schedule synth = SynthesizeSchedule(MakeProblem(p, 2, n, true, ChunkPlacement::kVShape),
                                              ZbvShapeOptions(p, n));
    const Schedule hand = ZbvSchedule(p, n);
    for (int stage = 0; stage < p; ++stage) {
      std::vector<OpId> a = synth.stage_ops[static_cast<std::size_t>(stage)];
      std::vector<OpId> b = hand.stage_ops[static_cast<std::size_t>(stage)];
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "p=" << p << " stage=" << stage;
    }
  }
}

TEST(Synth, OneFOneBExtremeMatchesHandcrafted) {
  // v=1, fused backward, budget_i = max(1, min(n, p-i)): the composed
  // block is 1F1B itself — same makespan under 1F1B's cost convention
  // (fused B costs b+w) and the same warmup memory profile.
  for (int p : {4, 8}) {
    for (int n : {p, 2 * p}) {
      SynthOptions options;
      options.b_time = 2.0;  // fused B = activation-gradient + weight halves
      options.transfer_time = 0.0;
      options.budget = SynthOneFOneBBudget(p, n);
      const Schedule synth = SynthesizeSchedule(MakeProblem(p, 1, n, false), options);
      const Schedule hand = OneFOneBSchedule(p, n);
      const sim::UniformCostModel costs(1.0, 2.0, 1.0, 0.0);
      EXPECT_NEAR(Simulate(synth, costs).makespan, Simulate(hand, costs).makespan, 1e-9)
          << "p=" << p << " n=" << n;
      for (int stage = 0; stage < p; ++stage) {
        EXPECT_LE(PeakRetainedForwards(synth, stage),
                  options.budget[static_cast<std::size_t>(stage)])
            << "p=" << p << " n=" << n << " stage=" << stage;
      }
    }
  }
}

TEST(Synth, VppClassBudgetTracksHandcrafted) {
  // v=2 round-robin fused under VPP's own memory profile: the composed
  // schedule must stay within a few chunk-op units of the handcrafted
  // interleaving (it is not required to beat a construction that exists
  // exactly for this budget, only to be competitive at it).
  for (int p : {4, 8}) {
    const int n = 2 * p;
    const Schedule hand = VppSchedule(p, 2, n);
    SynthOptions options;
    options.b_time = 2.0;
    options.transfer_time = 0.0;
    options.budget.resize(static_cast<std::size_t>(p));
    for (int stage = 0; stage < p; ++stage) {
      options.budget[static_cast<std::size_t>(stage)] =
          std::max(2, PeakRetainedForwards(hand, stage));
    }
    const Schedule synth = SynthesizeSchedule(MakeProblem(p, 2, n, false), options);
    const sim::UniformCostModel costs(1.0, 2.0, 1.0, 0.0);
    const double hand_makespan = Simulate(hand, costs).makespan;
    EXPECT_LE(Simulate(synth, costs).makespan, hand_makespan * 1.05 + 1e-9) << "p=" << p;
    for (int stage = 0; stage < p; ++stage) {
      EXPECT_LE(PeakRetainedForwards(synth, stage),
                options.budget[static_cast<std::size_t>(stage)])
          << "p=" << p << " stage=" << stage;
    }
  }
}

TEST(Synth, StrictlyDominatesCappedGeneratorOnTheFrontier) {
  // The acceptance pin: at p=8, n=8 and 1F1B-parity memory (2p = 16
  // retained chunk-forwards — ZbvCappedSchedule's honest peak, since its
  // deferred Ws hold every forward past its B) the synthesizer reaches
  // the 6n+(p-1) bound while the capped list-scheduler approximation is
  // far above it: equal memory, strictly smaller bubble.
  const int p = 8;
  const int n = 8;
  const PipelineProblem problem = MakeProblem(p, 2, n, true, ChunkPlacement::kVShape);
  const Schedule synth = SynthesizeSchedule(problem, ZbvShapeOptions(p, n));
  const Schedule capped = ZbvCappedSchedule(p, n);
  const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.0);
  sim::EngineOptions fill_whole;
  fill_whole.wgrad_mode = sim::WgradMode::kFillWhole;  // how the runner executes it
  const sim::SimResult synth_result = Simulate(synth, costs);
  const sim::SimResult capped_result = Simulate(capped, costs, fill_whole);
  int synth_peak = 0;
  for (int stage = 0; stage < p; ++stage) {
    synth_peak = std::max(synth_peak, PeakRetainedForwards(synth, stage));
  }
  EXPECT_LE(synth_peak, ZbvMaxRetainedForwards(p, n));
  EXPECT_LT(synth_result.makespan, capped_result.makespan - 1e-9);
  EXPECT_LT(synth_result.bubble_ratio, capped_result.bubble_ratio - 0.05);
}

TEST(Synth, RejectsMalformedInputs) {
  const PipelineProblem problem = MakeProblem(4, 2, 8, true, ChunkPlacement::kVShape);
  SynthOptions bad_arity;
  bad_arity.budget = {4, 4};
  EXPECT_THROW(SynthesizeSchedule(problem, bad_arity), CheckError);
  SynthOptions below_floor;
  below_floor.budget = {4, 4, 1, 4};  // entry below the v=2 floor
  EXPECT_THROW(SynthesizeSchedule(problem, below_floor), CheckError);
  SynthOptions zero_f;
  zero_f.f_time = 0.0;
  EXPECT_THROW(SynthesizeSchedule(problem, zero_f), CheckError);
  SynthOptions negative_transfer;
  negative_transfer.transfer_time = -0.1;
  EXPECT_THROW(SynthesizeSchedule(problem, negative_transfer), CheckError);
  PipelineProblem sliced = MakeProblem(4, 1, 8, true);
  sliced.slices = 2;
  EXPECT_THROW(SynthesizeSchedule(sliced), CheckError);
}

// The composer ranks candidates by (kind preference, visit) as a pair,
// so no visit count reaches the kind preference: with v >= 1001 chunks
// per stage, micro 1's first forward still runs right after micro 0's
// first backward instead of behind all of micro 0's backwards.
TEST(Synth, SecondMicroFollowsTheFirstBackwardAtAnyVisitCount) {
  for (const int v : {1000, 1002}) {
    for (const bool split : {false, true}) {
      SCOPED_TRACE(testing::Message() << "v=" << v << " split=" << split);
      SynthOptions options;
      options.offset_radius = 0;
      options.max_leaves = 1;
      const Schedule schedule = SynthesizeSchedule(MakeProblem(1, v, 2, split), options);
      const std::vector<OpId>& ops = schedule.stage_ops[0];
      const auto second = std::find_if(ops.begin(), ops.end(), [](const OpId& op) {
        return op.kind == OpKind::kForward && op.micro == 1 && op.chunk == 0;
      });
      ASSERT_NE(second, ops.end());
      EXPECT_EQ(second - ops.begin(), v + 1);
      EXPECT_EQ(ops[static_cast<std::size_t>(v)].kind, OpKind::kBackward);
    }
  }
}

// ---- seeded property fuzz ---------------------------------------------------
// Every synthesized schedule over randomized shapes and budgets must
// pass the full invariant battery, with its declared per-stage budget as
// the retained-forward cap.
TEST(SynthFuzz, RandomShapesPassEveryInvariantUnderBudget) {
  SplitMixRng rng(0x5eedc0de2025ull);
  for (int trial = 0; trial < 48; ++trial) {
    const int p = 2 + static_cast<int>(rng.NextU64() % 7);   // 2..8
    const int v = 1 + static_cast<int>(rng.NextU64() % 3);   // 1..3
    const int n = 1 + static_cast<int>(rng.NextU64() % 12);  // 1..12
    const bool split = rng.NextU64() & 1;
    const ChunkPlacement placement = (v == 2 && (rng.NextU64() & 1))
                                         ? ChunkPlacement::kVShape
                                         : ChunkPlacement::kRoundRobin;
    const PipelineProblem problem = MakeProblem(p, v, n, split, placement);

    SynthOptions options;
    options.transfer_time = (rng.NextU64() & 1) ? 0.05 : 0.0;
    if (!split) {
      options.b_time = 2.0;
    }
    const bool capped = rng.NextU64() % 4 != 0;  // 1 in 4 trials uncapped
    if (capped) {
      options.budget.resize(static_cast<std::size_t>(p));
      const int span = std::max(1, n * v - v + 1);
      for (int stage = 0; stage < p; ++stage) {
        options.budget[static_cast<std::size_t>(stage)] =
            v + static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(span));
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": p=" + std::to_string(p) +
                 " v=" + std::to_string(v) + " n=" + std::to_string(n) +
                 " split=" + std::to_string(split) +
                 " vshape=" + std::to_string(placement == ChunkPlacement::kVShape) +
                 " capped=" + std::to_string(capped));

    SynthReport report;
    const Schedule schedule = SynthesizeSchedule(problem, options, &report);
    EXPECT_GE(report.leaves_evaluated, 1);
    EXPECT_EQ(report.warmup.size(), static_cast<std::size_t>(p));

    InvariantOptions invariants;
    if (capped) {
      invariants.retained_cap = options.budget;
      for (int stage = 0; stage < p; ++stage) {
        EXPECT_LE(PeakRetainedForwards(schedule, stage),
                  options.budget[static_cast<std::size_t>(stage)])
            << "stage " << stage;
      }
    }
    const InvariantReport invariant_report = CheckScheduleInvariants(schedule, invariants);
    EXPECT_TRUE(invariant_report.ok()) << invariant_report.Summary();
  }
}

// ---- golden snapshots -------------------------------------------------------
// The synthesizer is deterministic; its serialized output at the three
// budget extremes for the canonical p=4, n=8 config is pinned
// byte-for-byte (see tests/golden/README.md for regeneration).

struct GoldenCase {
  const char* name;  // test label
  const char* file;
  PipelineProblem problem;
  SynthOptions options;
};

std::vector<GoldenCase> GoldenCases() {
  const int p = 4;
  const int n = 8;
  GoldenCase onefoneb{"synth_1f1b_p4_n8", "synth_1f1b_p4_n8.txt",
                      MakeProblem(p, 1, n, false), {}};
  onefoneb.options.b_time = 2.0;
  onefoneb.options.budget = SynthOneFOneBBudget(p, n);
  GoldenCase vpp{"synth_vpp_p4_n8", "synth_vpp_p4_n8.txt", MakeProblem(p, 2, n, false), {}};
  vpp.options.b_time = 2.0;
  const Schedule hand_vpp = VppSchedule(p, 2, n);
  vpp.options.budget.resize(static_cast<std::size_t>(p));
  for (int stage = 0; stage < p; ++stage) {
    vpp.options.budget[static_cast<std::size_t>(stage)] =
        std::max(2, PeakRetainedForwards(hand_vpp, stage));
  }
  GoldenCase zbv{"synth_zbv_p4_n8", "synth_zbv_p4_n8.txt",
                 MakeProblem(p, 2, n, true, ChunkPlacement::kVShape), {}};
  zbv.options.budget = SynthZbvBudget(p, n);
  return {onefoneb, vpp, zbv};
}

class SynthGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SynthGolden, SnapshotIsByteStable) {
  const GoldenCase& c = GetParam();
  const Schedule schedule = SynthesizeSchedule(c.problem, c.options);
  const std::string text = SerializeSchedule(schedule);
  ExpectMatchesGolden(c.file, text);
  const Schedule parsed = ParseSchedule(text);
  EXPECT_EQ(SerializeSchedule(parsed), text);
  EXPECT_EQ(parsed.stage_ops, schedule.stage_ops);
}

INSTANTIATE_TEST_SUITE_P(Extremes, SynthGolden, ::testing::ValuesIn(GoldenCases()),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace mepipe::sched
