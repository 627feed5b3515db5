// Tests for SVPP schedule generation (core/svpp) — the paper's §4.
#include "core/svpp.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "sched/serialize.h"
#include "sched/validate.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "golden.h"

namespace mepipe::core {
namespace {

using sched::OpKind;
using sched::Schedule;

SvppOptions Options(int p, int v, int s, int n, int f = 0, bool split = true) {
  SvppOptions options;
  options.stages = p;
  options.virtual_chunks = v;
  options.slices = s;
  options.micros = n;
  options.max_inflight = f;
  options.split_backward = split;
  return options;
}

TEST(Svpp, InflightBounds) {
  const SvppOptions options = Options(4, 2, 2, 4);
  EXPECT_EQ(MinInflight(options), 4);     // v*s
  EXPECT_EQ(Table3Inflight(options), 9);  // v*max(p,s) + min(p,s) - 1
  EXPECT_GT(MaxUsefulInflight(options), Table3Inflight(options));
}

TEST(Svpp, Table3InflightSliceHeavy) {
  // s > p: v*s + p - 1.
  const SvppOptions options = Options(4, 1, 8, 4);
  EXPECT_EQ(Table3Inflight(options), 11);
}

TEST(Svpp, RejectsVariantBelowFloor) {
  EXPECT_THROW(GenerateSvpp(Options(4, 2, 2, 4, /*f=*/3)), CheckError);
}

TEST(Svpp, PaperFigure4aShape) {
  // p=4, s=2, v=1, 4 micros (Figure 4a). Stage 0 of the Table 3 variant
  // admits p + s - 1 = 5 forwards before the first backward, matching the
  // 5/8·A peak the paper derives (5 slice-forwards, each A/(s·p) = A/8).
  const Schedule schedule = GenerateSvpp(Options(4, 1, 2, 4, /*f=*/5, /*split=*/false));
  EXPECT_EQ(sched::PeakRetainedForwards(schedule, 0), 5);
}

TEST(Svpp, PaperFigure4bShape) {
  // p=4, s=2, v=2 (Figure 4b): peak is 9 chunk-forwards of A/16 each.
  const Schedule schedule = GenerateSvpp(Options(4, 2, 2, 4, /*f=*/9, /*split=*/false));
  EXPECT_EQ(sched::PeakRetainedForwards(schedule, 0), 9);
}

TEST(Svpp, MemoryVariantsTradeBubbleForMemory) {
  // Sweeping f from the floor to the max: retained forwards weakly
  // increase, simulated makespan weakly decreases.
  const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.02);
  int previous_peak = 0;
  double previous_makespan = 1e100;
  for (int f = 2; f <= 5; ++f) {
    const Schedule schedule = GenerateSvpp(Options(4, 1, 2, 6, f));
    const sim::SimResult result = Simulate(schedule, costs);
    const int peak = sched::PeakRetainedForwards(schedule, 0);
    EXPECT_GE(peak, previous_peak) << "f=" << f;
    EXPECT_LE(result.makespan, previous_makespan + 1e-9) << "f=" << f;
    previous_peak = peak;
    previous_makespan = result.makespan;
  }
}

TEST(Svpp, SliceCountReducesPeakRetainedFraction) {
  // Figure 1's headline (p=8, v=2, n=8): slicing samples cuts peak
  // activation memory by >70% (s=4) and >80% (s=8) versus DAPPLE's
  // retained-p-micro-batches peak of 1.0·A.
  const int p = 8;
  const int v = 2;
  const int n = 8;
  for (int s : {4, 8}) {
    SvppOptions options = Options(p, v, s, n, 0, /*split=*/false);
    options.max_inflight = Table3Inflight(options);
    const Schedule schedule = GenerateSvpp(options);
    // Peak in units of A: retained chunk-slice-forwards / (v*s*p).
    const double fraction =
        static_cast<double>(sched::PeakRetainedForwards(schedule, 0)) / (v * s * p);
    const double dapple_fraction = 1.0;  // p micro-forwards of A/p each
    EXPECT_LT(fraction, (s == 4 ? 0.30 : 0.20) * dapple_fraction) << "s=" << s;
  }
}

TEST(Svpp, SplitBackwardDefersW) {
  const Schedule schedule = GenerateSvpp(Options(4, 1, 2, 4));
  EXPECT_TRUE(schedule.deferred_wgrad);
  EXPECT_TRUE(schedule.problem.split_backward);
}

TEST(Svpp, ReschedulingDoesNotHurtMakespan) {
  const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.02);
  SvppOptions with = Options(4, 2, 2, 8);
  SvppOptions without = with;
  without.reschedule_backwards = false;
  const Seconds opt = Simulate(GenerateSvpp(with), costs).makespan;
  const Seconds base = Simulate(GenerateSvpp(without), costs).makespan;
  EXPECT_LE(opt, base * 1.05);
}

TEST(Svpp, Table3VariantReachesItsBound) {
  // The Table 3 variant (f = v·max(p,s)+min(p,s)−1) actually *uses* its
  // budget on stage 0 when enough micro-batches exist — the generation
  // is not accidentally conservative.
  for (const auto& [p, v, s] : std::vector<std::tuple<int, int, int>>{
           {4, 1, 2}, {8, 1, 4}, {4, 2, 2}}) {
    SvppOptions options = Options(p, v, s, /*n=*/16, 0, /*split=*/false);
    options.max_inflight = Table3Inflight(options);
    const Schedule schedule = GenerateSvpp(options);
    EXPECT_EQ(sched::PeakRetainedForwards(schedule, 0), options.max_inflight)
        << "p=" << p << " v=" << v << " s=" << s;
  }
}

TEST(Svpp, MoreMicrosNeverRaisesPeak) {
  for (int n : {2, 4, 8, 16}) {
    SvppOptions options = Options(8, 1, 4, n, 0, /*split=*/false);
    options.max_inflight = Table3Inflight(options);
    const Schedule schedule = GenerateSvpp(options);
    EXPECT_LE(sched::PeakRetainedForwards(schedule, 0), options.max_inflight) << n;
  }
}

// Property sweep across shapes: generated SVPP schedules validate and the
// retained-forward peak never exceeds the requested variant.
struct SvppCase {
  int p, v, s, n;
};

class SvppSweep : public ::testing::TestWithParam<SvppCase> {};

TEST_P(SvppSweep, AllVariantsValid) {
  const SvppCase c = GetParam();
  SvppOptions options = Options(c.p, c.v, c.s, c.n);
  const int floor = MinInflight(options);
  const int ceiling = MaxUsefulInflight(options);
  for (int f = floor; f <= ceiling; ++f) {
    options.max_inflight = f;
    const Schedule schedule = GenerateSvpp(options);
    sched::InvariantOptions invariants;
    for (int stage = 0; stage < c.p; ++stage) {
      EXPECT_LE(sched::PeakRetainedForwards(schedule, stage), std::max(floor, f - stage))
          << "f=" << f << " stage=" << stage;
      invariants.retained_cap.push_back(std::max(floor, f - stage));
    }
    sched::ValidateScheduleInvariants(schedule, invariants);
  }
}

// Golden snapshots: the generation is deterministic, so the serialized
// form of two canonical configs is pinned byte-for-byte (see
// tests/golden/README.md for the regeneration contract).
TEST(SvppGolden, SnapshotsAreByteStable) {
  struct GoldenCase {
    SvppOptions options;
    const char* file;
  };
  const GoldenCase cases[] = {
      {Options(4, 1, 2, 6, /*f=*/5), "svpp_p4_v1_s2_n6_f5.txt"},
      {Options(8, 2, 2, 8), "svpp_p8_v2_s2_n8.txt"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.file);
    const Schedule schedule = GenerateSvpp(c.options);
    const std::string text = sched::SerializeSchedule(schedule);
    ExpectMatchesGolden(c.file, text);
    const Schedule parsed = sched::ParseSchedule(text);
    EXPECT_EQ(sched::SerializeSchedule(parsed), text);
    EXPECT_EQ(parsed.stage_ops, schedule.stage_ops);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvppSweep,
    ::testing::Values(SvppCase{2, 1, 2, 3}, SvppCase{4, 1, 2, 4}, SvppCase{4, 1, 4, 6},
                      SvppCase{4, 2, 2, 4}, SvppCase{8, 1, 4, 4}, SvppCase{8, 2, 2, 8},
                      SvppCase{3, 2, 3, 5}, SvppCase{6, 1, 8, 3}),
    [](const auto& info) {
      const SvppCase& c = info.param;
      return "p" + std::to_string(c.p) + "v" + std::to_string(c.v) + "s" + std::to_string(c.s) +
             "n" + std::to_string(c.n);
    });

}  // namespace
}  // namespace mepipe::core
