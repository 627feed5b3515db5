// Tests for the capped greedy list scheduler (sched/generator).
#include "sched/generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "sched/serialize.h"
#include "sched/validate.h"
#include "sched/zbv.h"
#include "golden.h"
#include "schedule_corpus.h"

namespace mepipe::sched {
namespace {

PipelineProblem MakeProblem(int p, int v, int s, int n, bool split = false) {
  PipelineProblem problem;
  problem.stages = p;
  problem.virtual_chunks = v;
  problem.slices = s;
  problem.micros = n;
  problem.split_backward = split;
  return problem;
}

TEST(CapSchedule, MatchesOneFOneBWarmup) {
  const std::vector<int> caps = CapSchedule(4, 4, 1);
  EXPECT_EQ(caps, (std::vector<int>{4, 3, 2, 1}));
}

TEST(CapSchedule, RespectsFloor) {
  const std::vector<int> caps = CapSchedule(4, 6, 4);
  EXPECT_EQ(caps, (std::vector<int>{6, 5, 4, 4}));
}

TEST(CapSchedule, RejectsCapBelowFloor) {
  EXPECT_THROW(CapSchedule(4, 1, 2), CheckError);
}

TEST(Generator, ReproducesCanonicalOneFOneB) {
  const PipelineProblem problem = MakeProblem(4, 1, 1, 8);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(4, 4, 1);
  const Schedule schedule = GenerateCapped(problem, options, "1F1B");

  // Last stage strictly alternates F and B starting with micro 0.
  const auto& last = schedule.stage_ops[3];
  ASSERT_EQ(last.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(last[2 * i].kind, OpKind::kForward) << i;
    EXPECT_EQ(last[2 * i].micro, i);
    EXPECT_EQ(last[2 * i + 1].kind, OpKind::kBackward) << i;
    EXPECT_EQ(last[2 * i + 1].micro, i);
  }
  // Stage 0 warms up with exactly p forwards before its first backward.
  EXPECT_EQ(FirstBackwardIndex(schedule, 0), 4u);
  EXPECT_EQ(PeakRetainedForwards(schedule, 0), 4);
  EXPECT_EQ(PeakRetainedForwards(schedule, 3), 1);
}

TEST(Generator, ForwardFirstProducesGPipeShape) {
  const PipelineProblem problem = MakeProblem(3, 1, 1, 5);
  GeneratorOptions options;
  options.backward_first = false;
  const Schedule schedule = GenerateCapped(problem, options, "GPipe");
  // Every stage runs all its forwards before any backward.
  for (int stage = 0; stage < 3; ++stage) {
    EXPECT_EQ(FirstBackwardIndex(schedule, stage), 5u) << "stage " << stage;
  }
}

// Ranks compare field by field, so a micro index of 4096 or more cannot
// spill into the kind preference: GPipe still runs every forward of a
// stage before its first backward.
TEST(Generator, ForwardFirstHoldsPastMicro4096) {
  for (const auto& [p, n] : {std::pair{1, 4097}, std::pair{2, 4100}}) {
    const Schedule schedule = GPipeSchedule(p, n);
    for (int stage = 0; stage < p; ++stage) {
      EXPECT_EQ(FirstBackwardIndex(schedule, stage), static_cast<std::size_t>(n))
          << "p=" << p << " n=" << n << " stage " << stage;
    }
  }
}

TEST(Generator, CapLimitsRetainedForwards) {
  for (int f = 2; f <= 6; ++f) {
    const PipelineProblem problem = MakeProblem(4, 1, 2, 6);
    GeneratorOptions options;
    options.inflight_cap = CapSchedule(4, f, 2);
    const Schedule schedule = GenerateCapped(problem, options, "capped");
    for (int stage = 0; stage < 4; ++stage) {
      EXPECT_LE(PeakRetainedForwards(schedule, stage), std::max(2, f - stage))
          << "f=" << f << " stage=" << stage;
    }
  }
}

TEST(Generator, DeadlocksDetectedWhenCapBelowFloor) {
  const PipelineProblem problem = MakeProblem(4, 1, 2, 4);
  GeneratorOptions options;
  options.inflight_cap = {1, 1, 1, 1};  // below the v*s = 2 floor
  EXPECT_THROW(GenerateCapped(problem, options, "bad"), CheckError);
}

TEST(Generator, SplitBackwardEmitsDeferredW) {
  const PipelineProblem problem = MakeProblem(2, 1, 1, 2, /*split=*/true);
  GeneratorOptions options;
  options.wgrad = WgradPolicy::kDeferred;
  const Schedule schedule = GenerateCapped(problem, options, "split");
  EXPECT_TRUE(schedule.deferred_wgrad);
  for (const auto& ops : schedule.stage_ops) {
    for (const OpId& op : ops) {
      EXPECT_NE(op.kind, OpKind::kWeightGrad);
    }
  }
}

TEST(Generator, SplitBackwardStaticWWhenRequested) {
  const PipelineProblem problem = MakeProblem(2, 1, 1, 2, /*split=*/true);
  GeneratorOptions options;
  options.wgrad = WgradPolicy::kLowestPriority;
  const Schedule schedule = GenerateCapped(problem, options, "split-static");
  EXPECT_FALSE(schedule.deferred_wgrad);
  int w_count = 0;
  for (const auto& ops : schedule.stage_ops) {
    for (const OpId& op : ops) {
      w_count += op.kind == OpKind::kWeightGrad ? 1 : 0;
    }
  }
  EXPECT_EQ(w_count, 2 * 2);  // one W per (stage-chunk, micro)
}

// Property sweep: every generated schedule validates, contains the right
// op count, and respects its cap, across a grid of shapes.
struct GenCase {
  int p, v, s, n, f;
};

class GeneratorSweep : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorSweep, ValidCappedSchedules) {
  const GenCase c = GetParam();
  const PipelineProblem problem = MakeProblem(c.p, c.v, c.s, c.n);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(c.p, c.f, c.v * c.s);
  const Schedule schedule = GenerateCapped(problem, options, "sweep");
  InvariantOptions invariants;
  for (int stage = 0; stage < c.p; ++stage) {
    EXPECT_EQ(schedule.stage_ops[static_cast<std::size_t>(stage)].size(),
              static_cast<std::size_t>(2 * c.n * c.s * c.v));
    EXPECT_LE(PeakRetainedForwards(schedule, stage),
              std::max(c.v * c.s, c.f - stage));
    invariants.retained_cap.push_back(std::max(c.v * c.s, c.f - stage));
  }
  ValidateScheduleInvariants(schedule, invariants);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratorSweep,
    ::testing::Values(GenCase{2, 1, 1, 4, 2}, GenCase{4, 1, 2, 4, 2}, GenCase{4, 1, 2, 4, 5},
                      GenCase{4, 2, 2, 4, 4}, GenCase{4, 2, 2, 4, 9}, GenCase{8, 1, 4, 8, 4},
                      GenCase{8, 1, 4, 8, 11}, GenCase{8, 2, 1, 8, 2}, GenCase{8, 2, 1, 8, 16},
                      GenCase{3, 1, 5, 2, 5}, GenCase{6, 2, 3, 7, 6}, GenCase{4, 3, 2, 8, 6},
                      GenCase{2, 1, 8, 3, 8}, GenCase{16, 1, 1, 4, 16}),
    [](const auto& info) {
      const GenCase& c = info.param;
      return "p" + std::to_string(c.p) + "v" + std::to_string(c.v) + "s" + std::to_string(c.s) +
             "n" + std::to_string(c.n) + "f" + std::to_string(c.f);
    });

// Randomized (seeded, splitmix64 — bit-identical across toolchains)
// sweep of generator options: every generated schedule must pass every
// invariant of the validator, activation cap included, not just the
// structural checks.
TEST(GeneratorFuzz, RandomOptionShapesPassEveryInvariant) {
  SplitMixRng rng(0x5eedc0de2025ull);
  for (int trial = 0; trial < 64; ++trial) {
    const int p = 2 + static_cast<int>(rng.NextU64() % 7);  // 2..8
    const int v = 1 + static_cast<int>(rng.NextU64() % 2);  // 1..2
    const int s = 1 << (rng.NextU64() % 3);                 // 1, 2, 4
    const int n = 1 + static_cast<int>(rng.NextU64() % 8);  // 1..8
    const bool split = rng.NextU64() & 1;
    PipelineProblem problem = MakeProblem(p, v, s, n, split);
    if (v == 2 && (rng.NextU64() & 1)) {
      problem.placement = ChunkPlacement::kVShape;
    }

    GeneratorOptions options;
    const int floor = v * s;
    const int f = floor + static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(2 * p));
    options.inflight_cap = CapSchedule(p, f, floor);
    options.backward_first = rng.NextU64() & 1;
    options.child_count_backward_priority = rng.NextU64() & 1;
    if (split) {
      options.wgrad =
          (rng.NextU64() & 1) ? WgradPolicy::kDeferred : WgradPolicy::kLowestPriority;
    }

    const Schedule schedule = GenerateCapped(problem, options, "fuzz");
    InvariantOptions invariants;
    // The generator's cap releases retained forwards at B; the
    // activation-cap invariant counts releases at W for static-split
    // schedules, so the cap is only asserted for the other shapes.
    if (!(split && options.wgrad == WgradPolicy::kLowestPriority)) {
      for (int stage = 0; stage < p; ++stage) {
        invariants.retained_cap.push_back(std::max(floor, f - stage));
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": p=" + std::to_string(p) +
                 " v=" + std::to_string(v) + " s=" + std::to_string(s) +
                 " n=" + std::to_string(n) + " f=" + std::to_string(f) +
                 " split=" + std::to_string(split));
    ValidateScheduleInvariants(schedule, invariants);
  }
}

// Same harness over every baseline construction: randomized shapes, all
// invariants.
TEST(GeneratorFuzz, RandomBaselineShapesPassEveryInvariant) {
  SplitMixRng rng(0xba5e11e2025ull);
  for (int trial = 0; trial < 32; ++trial) {
    const int p = 2 + static_cast<int>(rng.NextU64() % 7);   // 2..8
    const int n = 1 + static_cast<int>(rng.NextU64() % 12);  // 1..12
    const int s = 1 + static_cast<int>(rng.NextU64() % 4);   // 1..4
    SCOPED_TRACE("trial " + std::to_string(trial) + ": p=" + std::to_string(p) +
                 " n=" + std::to_string(n) + " s=" + std::to_string(s));
    std::vector<Schedule> schedules;
    schedules.push_back(GPipeSchedule(p, n));
    schedules.push_back(OneFOneBSchedule(p, n));
    schedules.push_back(TeraPipeSchedule(p, s, n));
    schedules.push_back(Zb1pSchedule(p, n));
    schedules.push_back(ZbvSchedule(p, n));
    schedules.push_back(ZbvCappedSchedule(p, n));
    schedules.push_back(HanayoSchedule(p, n));
    if (n % p == 0) {
      schedules.push_back(VppSchedule(p, 2, n));
    }
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
}

TEST(Generator, ChildCountPriorityStillValidates) {
  const PipelineProblem problem = MakeProblem(4, 2, 2, 4);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(4, 6, 4);
  options.child_count_backward_priority = true;
  const Schedule schedule = GenerateCapped(problem, options, "child-priority");
  ValidateSchedule(schedule);  // does not throw
  SUCCEED();
}

TEST(Generator, StageTimeScaleValidatesAndSchedules) {
  const PipelineProblem problem = MakeProblem(4, 1, 2, 6);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(4, 5, 2);
  options.stage_time_scale = {1.0, 1.0, 2.5, 1.0};
  const Schedule schedule = GenerateCapped(problem, options, "scaled");
  ValidateSchedule(schedule);

  // Wrong arity and non-positive entries are rejected.
  options.stage_time_scale = {1.0, 2.0};
  EXPECT_THROW(GenerateCapped(problem, options, "bad-arity"), CheckError);
  options.stage_time_scale = {1.0, 1.0, 0.0, 1.0};
  EXPECT_THROW(GenerateCapped(problem, options, "bad-scale"), CheckError);
}

TEST(GeneratorValidate, ReportsArityMismatchesBothDirections) {
  // Per-stage vectors shorter AND longer than the stage count are
  // structured errors — the long case previously sailed past the old
  // inline check only to index garbage (or silently ignore entries)
  // deep inside generation.
  GeneratorOptions options;
  for (const std::size_t len : {std::size_t{2}, std::size_t{7}}) {
    options.inflight_cap.assign(len, 4);
    options.stage_time_scale.assign(len, 1.0);
    const std::vector<GeneratorIssue> issues = options.Validate(/*stages=*/4);
    ASSERT_EQ(issues.size(), 2u) << "len=" << len;
    EXPECT_EQ(issues[0].code, GeneratorIssue::Code::kInflightCapArity);
    EXPECT_EQ(issues[1].code, GeneratorIssue::Code::kStageTimeScaleArity);
    for (const GeneratorIssue& issue : issues) {
      EXPECT_NE(issue.message.find(std::to_string(len)), std::string::npos);
      EXPECT_NE(issue.message.find('4'), std::string::npos);
    }
  }
  // Matching arity (or empty = uniform/uncapped) is clean.
  options.inflight_cap.assign(4, 4);
  options.stage_time_scale.assign(4, 1.0);
  EXPECT_TRUE(options.Validate(4).empty());
  options.inflight_cap.clear();
  options.stage_time_scale.clear();
  EXPECT_TRUE(options.Validate(4).empty());
}

TEST(GeneratorValidate, ReportsBadEntries) {
  GeneratorOptions options;
  options.inflight_cap = {4, -1, 4, 4};
  options.stage_time_scale = {1.0, 1.0, 0.0, 1.0};
  const std::vector<GeneratorIssue> issues = options.Validate(4);
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].code, GeneratorIssue::Code::kNegativeInflightCap);
  EXPECT_EQ(issues[0].stage, 1);
  EXPECT_EQ(issues[1].code, GeneratorIssue::Code::kNonPositiveTimeScale);
  EXPECT_EQ(issues[1].stage, 2);
  for (const GeneratorIssue& issue : issues) {
    EXPECT_FALSE(issue.message.empty());
    EXPECT_NE(GeneratorIssueCodeName(issue.code), nullptr);
  }
}

TEST(GeneratorValidate, GenerateCappedThrowsOnLongVectors) {
  // The short-vector case is covered by StageTimeScaleValidatesAndSchedules;
  // the long-vector case is the half the old entry check missed.
  const PipelineProblem problem = MakeProblem(4, 1, 2, 6);
  GeneratorOptions long_cap;
  long_cap.inflight_cap = {4, 4, 4, 4, 4};
  EXPECT_THROW(GenerateCapped(problem, long_cap, "long-cap"), CheckError);
  GeneratorOptions long_scale;
  long_scale.stage_time_scale = {1.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(GenerateCapped(problem, long_scale, "long-scale"), CheckError);
}

TEST(Generator, StageTimeScaleChangesTheInterleaving) {
  // A heavily skewed stage rate must change the generated program order
  // somewhere (the point of the hook), while a uniform scale vector is
  // exactly equivalent to no vector at all.
  const PipelineProblem problem = MakeProblem(4, 1, 2, 8);
  GeneratorOptions uniform;
  uniform.inflight_cap = CapSchedule(4, 6, 2);
  const Schedule base = GenerateCapped(problem, uniform, "base");

  GeneratorOptions same = uniform;
  same.stage_time_scale = {1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(GenerateCapped(problem, same, "base").stage_ops, base.stage_ops);

  GeneratorOptions skewed = uniform;
  skewed.stage_time_scale = {1.0, 1.0, 4.0, 1.0};
  const Schedule scaled = GenerateCapped(problem, skewed, "skewed");
  ValidateSchedule(scaled);
  EXPECT_NE(scaled.stage_ops, base.stage_ops);
}

// Every generator the planner calls, pinned over ~100 shapes: each
// golden line is a shape and the FNV-1a hash of its serialized schedule.
TEST(ScheduleCorpus, SerializedOrdersMatchGolden) {
  std::string lines;
  for (const CorpusEntry& entry : ScheduleCorpus()) {
    lines += StrFormat("%s fnv1a=%016llx\n", entry.shape.c_str(),
                       static_cast<unsigned long long>(Fnv1a(SerializeSchedule(entry.schedule))));
  }
  ExpectMatchesGolden("schedule_corpus.txt", lines);
}

// Every GeneratorOptions knob callers set, pinned over a seeded grid:
// p cycles 1..8; v, s, n, split and (at v = 2) V-shape placement are
// drawn; caps are uncapped, CapSchedule(p, f, v·s) with f in
// [v·s, v·s+2p], or an explicit per-stage vector >= v·s; stage time
// scales are uniform or drawn from [0.5, 2). Each line holds the
// options and the FNV-1a hash of the serialized schedule, or "throws".
TEST(Generator, KnobGridMatchesGolden) {
  SplitMixRng rng(0xca99ed5eedULL);
  const auto draw = [&rng](int below) {
    return static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(below));
  };
  const auto join = [](const auto& values, const char* format) {
    std::string text;
    for (const auto value : values) {
      if (!text.empty()) {
        text += ',';
      }
      text += StrFormat(format, value);
    }
    return text.empty() ? std::string("none") : text;
  };
  std::string lines;
  for (int i = 0; i < 32; ++i) {
    const int p = 1 + i % 8;
    const int v = 1 + draw(3);
    const int s = 1 << draw(3);
    const int n = 1 + draw(24);
    const bool split = draw(2) == 1;
    PipelineProblem problem = MakeProblem(p, v, s, n, split);
    if (v == 2 && draw(2) == 1) {
      problem.placement = ChunkPlacement::kVShape;
    }
    const int floor = v * s;
    GeneratorOptions options;
    switch (draw(3)) {
      case 1:
        options.inflight_cap = CapSchedule(p, floor + draw(2 * p + 1), floor);
        break;
      case 2:
        for (int stage = 0; stage < p; ++stage) {
          options.inflight_cap.push_back(floor + draw(2 * p + 1));
        }
        break;
      default:
        break;
    }
    if (draw(2) == 1) {
      for (int stage = 0; stage < p; ++stage) {
        options.stage_time_scale.push_back(0.5 + 1.5 * rng.NextUniform());
      }
    }
    options.backward_first = draw(2) == 1;
    options.child_count_backward_priority = draw(2) == 1;
    if (split) {
      options.wgrad = draw(2) == 1 ? WgradPolicy::kLowestPriority : WgradPolicy::kDeferred;
    }
    std::string outcome;
    try {
      outcome = StrFormat("fnv1a=%016llx", static_cast<unsigned long long>(Fnv1a(
                                               SerializeSchedule(GenerateCapped(
                                                   problem, options, "knob-grid")))));
    } catch (const CheckError&) {
      outcome = "throws";
    }
    lines += StrFormat(
        "p=%d v=%d s=%d n=%d split=%d vshape=%d caps=%s scale=%s backward_first=%d "
        "child_count=%d w_static=%d %s\n",
        p, v, s, n, split, problem.placement == ChunkPlacement::kVShape,
        join(options.inflight_cap, "%d").c_str(), join(options.stage_time_scale, "%.17g").c_str(),
        options.backward_first, options.child_count_backward_priority,
        options.wgrad == WgradPolicy::kLowestPriority, outcome.c_str());
  }
  ExpectMatchesGolden("capped_knob_grid.txt", lines);
}

}  // namespace
}  // namespace mepipe::sched
