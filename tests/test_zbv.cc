// Differential and golden tests for the handcrafted ZB-V construction
// (sched/zbv.h) against the retained capped-generator approximation and
// the core/analytic Table 3 row.
#include "sched/zbv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "common/rng.h"
#include "core/analytic.h"
#include "sched/baselines.h"
#include "sched/serialize.h"
#include "sched/validate.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "golden.h"

namespace mepipe::sched {
namespace {

struct Grid {
  int stages;
  int micros;
};

// The differential grid from the issue: p in {4, 8} crossed with
// microbatch counts below, at, and above p (ZBV fixes s=1, v=2).
std::vector<Grid> DifferentialGrid() {
  std::vector<Grid> grid;
  for (int p : {4, 8}) {
    for (int n : {2, p - 1, p, 2 * p, 3 * p, 16}) {
      if (n >= 1) {
        grid.push_back({p, n});
      }
    }
  }
  return grid;
}

InvariantOptions ZbvInvariantOptions(int stages, int micros) {
  InvariantOptions options;
  options.retained_cap.assign(static_cast<std::size_t>(stages),
                              ZbvMaxRetainedForwards(stages, micros));
  return options;
}

TEST(Zbv, PassesEveryInvariant) {
  for (const Grid& g : DifferentialGrid()) {
    const Schedule schedule = HandcraftedZbvSchedule(g.stages, g.micros);
    const InvariantReport report =
        CheckScheduleInvariants(schedule, ZbvInvariantOptions(g.stages, g.micros));
    EXPECT_TRUE(report.ok()) << "p=" << g.stages << " n=" << g.micros << "\n"
                             << report.Summary();
  }
}

TEST(Zbv, BubbleNoWorseThanCappedApproximation) {
  for (const Grid& g : DifferentialGrid()) {
    const Schedule hand = ZbvSchedule(g.stages, g.micros);
    const Schedule capped = ZbvCappedSchedule(g.stages, g.micros);
    const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.05);
    sim::EngineOptions fill_whole;
    fill_whole.wgrad_mode = sim::WgradMode::kFillWhole;
    const sim::SimResult hand_result = Simulate(hand, costs);
    const sim::SimResult capped_result = Simulate(capped, costs, fill_whole);
    EXPECT_LE(hand_result.bubble_ratio, capped_result.bubble_ratio + 1e-9)
        << "p=" << g.stages << " n=" << g.micros;
  }
}

TEST(Zbv, IdenticalOpMultisetsPerStage) {
  for (const Grid& g : DifferentialGrid()) {
    const Schedule hand = ZbvSchedule(g.stages, g.micros);
    const Schedule capped = ZbvCappedSchedule(g.stages, g.micros);
    ASSERT_FALSE(hand.deferred_wgrad);   // W is part of the construction
    ASSERT_TRUE(capped.deferred_wgrad);  // W is filled by the engine
    for (int stage = 0; stage < g.stages; ++stage) {
      // Modulo the W placement the two variants schedule the same work.
      std::vector<OpId> hand_ops = hand.stage_ops[static_cast<std::size_t>(stage)];
      std::erase_if(hand_ops, [](const OpId& op) { return op.kind == OpKind::kWeightGrad; });
      std::vector<OpId> capped_ops = capped.stage_ops[static_cast<std::size_t>(stage)];
      std::sort(hand_ops.begin(), hand_ops.end());
      std::sort(capped_ops.begin(), capped_ops.end());
      EXPECT_EQ(hand_ops, capped_ops) << "p=" << g.stages << " n=" << g.micros
                                      << " stage=" << stage;
    }
  }
}

TEST(Zbv, PeakActivationWithinTable3Bound) {
  for (const Grid& g : DifferentialGrid()) {
    const Schedule schedule = ZbvSchedule(g.stages, g.micros);
    // 1F1B parity: at most 2·min(n,p) chunk-forwards of A/(2p) each, so
    // the worst stage's fraction of A is min(n,p)/p (= Table 3's bound
    // of 1 in the n >= p regime the table covers).
    const double bound =
        static_cast<double>(std::min(g.micros, g.stages)) / g.stages;
    const auto row = core::Analyze(core::Method::kZbv, {g.stages, 2, 1, g.micros});
    if (row.has_value()) {
      EXPECT_LE(bound, row->activation_fraction + 1e-12);
    }
    for (int stage = 0; stage < g.stages; ++stage) {
      const double fraction =
          PeakRetainedForwards(schedule, stage) / (2.0 * g.stages);
      EXPECT_LE(fraction, bound + 1e-12)
          << "p=" << g.stages << " n=" << g.micros << " stage=" << stage;
    }
  }
}

TEST(Zbv, SteadyStateMatchesTable3ClosedForm) {
  // Under the table's assumptions (uniform F = B = W, zero-cost
  // communication, n >= p) the construction reaches the chunk-chain
  // lower bound exactly: makespan = 6n + (p-1) chunk-op units.
  for (const Grid& g : DifferentialGrid()) {
    if (g.micros < g.stages) {
      continue;  // the ramp cannot fill; Analyze returns nullopt here
    }
    ZbvOptions options;
    options.transfer_time = 0.0;
    const Schedule schedule = HandcraftedZbvSchedule(g.stages, g.micros, options);
    const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.0);
    const sim::SimResult result = Simulate(schedule, costs);
    const auto row = core::Analyze(core::Method::kZbv, {g.stages, 2, 1, g.micros});
    ASSERT_TRUE(row.has_value());
    EXPECT_NEAR(result.makespan, 6.0 * g.micros + (g.stages - 1), 1e-9)
        << "p=" << g.stages << " n=" << g.micros;
    EXPECT_NEAR(result.bubble_ratio, row->bubble_ratio, 1e-9)
        << "p=" << g.stages << " n=" << g.micros;
  }
}

// Order-based replay of the construction's activation accounting over a
// produced schedule: retained chunk-forwards plus act_grad_weight per
// B-to-W act-grad backlog entry, maximized over every stage prefix.
double ReplayPeakActivationUnits(const Schedule& schedule, double act_grad_weight) {
  double peak = 0.0;
  for (const auto& ops : schedule.stage_ops) {
    int retained = 0;
    int pending_w = 0;
    for (const OpId& op : ops) {
      switch (op.kind) {
        case OpKind::kForward:
          ++retained;
          break;
        case OpKind::kBackward:
          ++pending_w;
          break;
        case OpKind::kWeightGrad:
          --retained;
          --pending_w;
          break;
        default:
          break;
      }
      peak = std::max(peak, retained + act_grad_weight * pending_w);
    }
  }
  return peak;
}

// Regression for the fill-policy selection bug: ranking the four fill
// trials by makespan alone can select a fill whose act-grad backlog
// blows the activation budget while a within-budget fill exists at a
// marginally larger makespan. Pinned shape: p=8, n=12 with unit act-grad
// weight — the makespan winner peaks at 28 units, a feasible fill at 24.
TEST(Zbv, FillSelectionRespectsActivationBudget) {
  constexpr int kStages = 8;
  constexpr int kMicros = 12;
  constexpr double kBudget = 26.0;
  ZbvOptions options;
  options.act_grad_weight = 1.0;

  // The shape is a genuine regression: the unconstrained makespan winner
  // violates the budget, and at least one trial fits it.
  const std::vector<ZbvFillCandidate> candidates =
      ZbvFillCandidates(kStages, kMicros, options);
  ASSERT_EQ(candidates.size(), 4u);
  const auto winner = std::min_element(
      candidates.begin(), candidates.end(),
      [](const ZbvFillCandidate& a, const ZbvFillCandidate& b) {
        return a.makespan < b.makespan;
      });
  EXPECT_GT(winner->peak_activation_units, kBudget);
  EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                          [&](const ZbvFillCandidate& c) {
                            return c.peak_activation_units <= kBudget;
                          }));

  // The fixed selection never picks a budget-violating fill when a
  // feasible one exists.
  options.activation_budget_units = kBudget;
  const Schedule schedule = HandcraftedZbvSchedule(kStages, kMicros, options);
  EXPECT_LE(ReplayPeakActivationUnits(schedule, options.act_grad_weight), kBudget + 1e-9);
  const InvariantReport report =
      CheckScheduleInvariants(schedule, ZbvInvariantOptions(kStages, kMicros));
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(Zbv, FillSelectionDegradesToLeastPeakWhenNothingFits) {
  ZbvOptions options;
  options.act_grad_weight = 1.0;
  options.activation_budget_units = 1.0;  // below any fill's peak
  const std::vector<ZbvFillCandidate> candidates = ZbvFillCandidates(8, 12, options);
  double least_peak = candidates.front().peak_activation_units;
  for (const ZbvFillCandidate& c : candidates) {
    EXPECT_FALSE(c.within_budget);
    least_peak = std::min(least_peak, c.peak_activation_units);
  }
  const Schedule schedule = HandcraftedZbvSchedule(8, 12, options);
  EXPECT_NEAR(ReplayPeakActivationUnits(schedule, options.act_grad_weight), least_peak, 1e-9);
}

TEST(Zbv, DefaultOptionsKeepLegacyFillSelection) {
  // act_grad_weight = 0 makes every fill feasible (peak = retained
  // forwards <= cap = budget), so the memory-aware key must reduce to
  // the legacy makespan-only ranking bit-for-bit — the pinned goldens
  // below depend on it.
  for (const Grid& g : DifferentialGrid()) {
    const std::vector<ZbvFillCandidate> candidates =
        ZbvFillCandidates(g.stages, g.micros);
    for (const ZbvFillCandidate& c : candidates) {
      EXPECT_TRUE(c.within_budget) << "p=" << g.stages << " n=" << g.micros;
    }
  }
}

TEST(Zbv, RejectsMalformedOptions) {
  ZbvOptions negative_transfer;
  negative_transfer.transfer_time = -0.1;
  EXPECT_THROW(HandcraftedZbvSchedule(4, 8, negative_transfer), CheckError);
  ZbvOptions zero_f;
  zero_f.f_time = 0.0;
  EXPECT_THROW(HandcraftedZbvSchedule(4, 8, zero_f), CheckError);
  ZbvOptions tiny_cap;
  tiny_cap.max_retained = 1;  // both legs of a micro can never be in flight
  EXPECT_THROW(HandcraftedZbvSchedule(4, 8, tiny_cap), CheckError);
  ZbvOptions negative_weight;
  negative_weight.act_grad_weight = -0.5;
  EXPECT_THROW(HandcraftedZbvSchedule(4, 8, negative_weight), CheckError);
  ZbvOptions negative_budget;
  negative_budget.activation_budget_units = -1.0;
  EXPECT_THROW(HandcraftedZbvSchedule(4, 8, negative_budget), CheckError);
}

TEST(Zbv, ValidatorCatchesCorruptedSchedules) {
  Schedule schedule = ZbvSchedule(4, 8);
  // Swap a B ahead of the F it depends on within one stage.
  auto& ops = schedule.stage_ops[0];
  const auto first_b = std::find_if(ops.begin(), ops.end(), [](const OpId& op) {
    return op.kind == OpKind::kBackward;
  });
  ASSERT_NE(first_b, ops.end());
  std::swap(ops.front(), *first_b);
  const InvariantReport report = CheckScheduleInvariants(schedule, ZbvInvariantOptions(4, 8));
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(ValidateScheduleInvariants(schedule, ZbvInvariantOptions(4, 8)), CheckError);
}

// --- golden snapshots --------------------------------------------------------
// The construction is deterministic; its serialized form for the two
// canonical configs is pinned byte-for-byte under tests/golden/. A diff
// here means the construction changed — regenerate the goldens (see
// tests/golden/README.md) only when that is intentional.

struct GoldenGrid {
  Grid grid;
  const char* file;
};

class ZbvGolden : public ::testing::TestWithParam<GoldenGrid> {};

TEST_P(ZbvGolden, SnapshotIsByteStable) {
  const auto& [g, file] = GetParam();
  const Schedule schedule = ZbvSchedule(g.stages, g.micros);
  const std::string text = SerializeSchedule(schedule);
  ExpectMatchesGolden(file, text);
  // Parsing the golden text and re-serializing must reproduce it exactly.
  const Schedule parsed = ParseSchedule(text);
  EXPECT_EQ(SerializeSchedule(parsed), text);
  EXPECT_EQ(parsed.stage_ops, schedule.stage_ops);
}

INSTANTIATE_TEST_SUITE_P(Canonical, ZbvGolden,
                         ::testing::Values(GoldenGrid{{4, 8}, "zbv_p4_n8.txt"},
                                           GoldenGrid{{8, 16}, "zbv_p8_n16.txt"}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.grid.stages) + "n" +
                                  std::to_string(info.param.grid.micros);
                         });

// Every ZbvOptions knob, pinned over a seeded grid: p cycles 1..8 and the
// budget mode cycles off / below every fill's peak (the peak-first
// fallback: every fill retains at least both legs of micro 0) / drawn
// from [2, 3p+2), so each p meets each mode once. Each line holds the
// options, the FNV-1a hash of the serialized schedule and the four fill
// profiles.
TEST(Zbv, KnobGridMatchesGolden) {
  SplitMixRng rng(0x2b7a11e5eedULL);
  const auto draw = [&rng](int below) { return static_cast<int>(rng.NextU64() % below); };
  std::string lines;
  for (int i = 0; i < 24; ++i) {
    const int p = 1 + i % 8;
    const int n = 1 + draw(24);
    ZbvOptions options;
    options.f_time = 0.5 + rng.NextUniform();
    options.b_time = 0.5 + rng.NextUniform();
    options.w_time = 0.5 + rng.NextUniform();
    options.transfer_time = draw(2) == 0 ? 0.0 : rng.NextUniform();
    options.max_retained = draw(2) == 0 ? 0 : 2 + draw(3 * p + 2);
    options.act_grad_weight = draw(2) == 0 ? 0.0 : 1.5 * rng.NextUniform();
    switch (i % 3) {
      case 1:
        options.activation_budget_units = 0.5 + rng.NextUniform();
        break;
      case 2:
        options.activation_budget_units = 2.0 + 3.0 * p * rng.NextUniform();
        break;
      default:
        break;
    }
    lines += StrFormat("p=%d n=%d f=%.17g b=%.17g w=%.17g transfer=%.17g max_retained=%d "
                       "act_grad=%.17g budget=%.17g fnv1a=%016llx\n",
                       p, n, options.f_time, options.b_time, options.w_time,
                       options.transfer_time, options.max_retained, options.act_grad_weight,
                       options.activation_budget_units,
                       static_cast<unsigned long long>(
                           Fnv1a(SerializeSchedule(HandcraftedZbvSchedule(p, n, options)))));
    for (const ZbvFillCandidate& c : ZbvFillCandidates(p, n, options)) {
      lines += StrFormat("  alternate=%d w_eager=%d makespan=%.17g peak=%.17g within_budget=%d\n",
                         c.alternate, c.w_eager, c.makespan, c.peak_activation_units,
                         c.within_budget);
    }
  }
  ExpectMatchesGolden("zbv_knob_grid.txt", lines);
}

}  // namespace
}  // namespace mepipe::sched
