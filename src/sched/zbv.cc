#include "sched/zbv.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sched/dependency.h"

namespace mepipe::sched {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// The two fill-policy axes the recipe tries (the best of the four
// combinations is kept):
//   alternate — when an F and a B are both ready, prefer the opposite of
//               what just ran (keeps the F relay feeding downstream
//               stages) instead of strictly draining backwards;
//   w_eager   — pending weight gradients may fill any idle slot, instead
//               of running only when memory pressure forces one (to
//               admit a capped forward) or during the final drain.
struct FillPolicy {
  bool alternate = true;
  bool w_eager = true;
};

struct Built {
  std::vector<std::vector<OpId>> order;
  double makespan = kInfinity;
  // Worst-stage peak activation in chunk-forward units: retained
  // forwards plus act_grad_weight per pending W (see ZbvOptions).
  double peak_activation_units = 0.0;
};

class Builder {
 public:
  Builder(const PipelineProblem& problem, const ZbvOptions& options, int cap, FillPolicy policy)
      : problem_(problem),
        options_(options),
        cap_(cap),
        policy_(policy),
        state_(static_cast<std::size_t>(problem.stages)),
        index_(problem),
        done_(index_.size(), kInfinity) {}

  Built Run();

 private:
  struct StageState {
    int f_next[2] = {0, 0};  // next micro to forward, per leg (0 = descending)
    int b_next[2] = {0, 0};
    std::deque<OpId> pending_w;  // Ws whose B has run, FIFO
    int retained = 0;            // chunk-forwards awaiting their W
    double peak_units = 0.0;     // peak of retained + weighted W backlog
    double free_at = 0.0;
    // Alternation state: after an F prefer a B and vice versa.
    bool prefer_backward = false;
  };

  int ChunkOfLeg(int stage, int leg) const {
    return leg == 0 ? stage : 2 * problem_.stages - 1 - stage;
  }

  double Duration(OpKind kind) const {
    switch (kind) {
      case OpKind::kForward:
        return options_.f_time;
      case OpKind::kBackward:
        return options_.b_time;
      default:
        return options_.w_time;
    }
  }

  // Earliest start permitted by finished dependencies; +inf if one is
  // still unscheduled (its completion slot still holds +inf).
  double ReadyTime(const OpId& op) const {
    double ready = 0.0;
    ForEachDependency(problem_, op, [&](const Dep& dep) {
      ready = std::max(ready, done_[index_(dep.op)] +
                                  (dep.cross_stage ? options_.transfer_time : 0.0));
    });
    return ready;
  }

  const PipelineProblem& problem_;
  const ZbvOptions& options_;
  const int cap_;
  const FillPolicy policy_;
  std::vector<StageState> state_;
  // Completion time per op slot; +inf = not run yet.
  const OpIndex index_;
  std::vector<double> done_;
};

Built Builder::Run() {
  const int p = problem_.stages;
  const int n = problem_.micros;
  const double lookahead = 2.0 * options_.transfer_time;

  Built built;
  built.order.resize(static_cast<std::size_t>(p));
  std::size_t remaining = static_cast<std::size_t>(p) * 6 * static_cast<std::size_t>(n);

  double now = 0.0;
  while (remaining > 0) {
    bool scheduled_any = false;
    double next_event = kInfinity;

    for (int stage = 0; stage < p; ++stage) {
      StageState& st = state_[static_cast<std::size_t>(stage)];
      const bool fb_left =
          st.f_next[0] < n || st.f_next[1] < n || st.b_next[0] < n || st.b_next[1] < n;
      if (!fb_left && st.pending_w.empty()) {
        continue;  // stage fully drained
      }
      if (st.free_at > now) {
        next_event = std::min(next_event, st.free_at);
        continue;
      }

      // Enumerate the stage's candidate ops: the next F and B of each
      // leg, plus the oldest pending W. Dependencies order the two legs
      // naturally (stage p-1's ascending F needs its descending F; a
      // descending B needs the ascending B of the same micro).
      struct Candidate {
        OpId op;
        double ready = kInfinity;
        int rank = 0;
      };
      Candidate best;
      bool found = false;
      bool forward_capped = false;  // a dep-ready F was blocked by the cap

      auto consider = [&](const OpId& op, int rank, int headroom) {
        const double ready = ReadyTime(op);
        if (ready == kInfinity) {
          return;
        }
        if (ready > now + lookahead) {
          next_event = std::min(next_event, ready);
          return;
        }
        if (op.kind == OpKind::kForward && st.retained > cap_ - headroom) {
          forward_capped = true;
          return;
        }
        if (!found || std::tie(rank, ready, op.micro, op.chunk) <
                          std::tie(best.rank, best.ready, best.op.micro, best.op.chunk)) {
          best = {op, ready, rank};
          found = true;
        }
      };

      // Rank order within the stage. The ascending-leg (second-visit)
      // forward outranks the descending one: it is the op that unlocks
      // the local B chain, the recipe's zero-bubble turnaround. A
      // descending forward additionally reserves one cap slot for it —
      // otherwise eager first-leg forwards fill the retained budget and
      // the backward chain can never start (deadlock).
      const int f_rank = policy_.alternate ? (st.prefer_backward ? 1 : 0) : 1;
      const int b_rank = 1 - f_rank;
      for (int leg = 0; leg < 2; ++leg) {
        const int chunk = ChunkOfLeg(stage, leg);
        if (st.f_next[leg] < n) {
          consider({OpKind::kForward, st.f_next[leg], 0, chunk}, 2 * f_rank + (leg == 0 ? 1 : 0),
                   leg == 0 ? 2 : 1);
        }
        if (st.b_next[leg] < n) {
          consider({OpKind::kBackward, st.b_next[leg], 0, chunk}, 2 * b_rank, 0);
        }
      }
      const bool w_admissible =
          !st.pending_w.empty() && (policy_.w_eager || forward_capped || !fb_left);
      if (w_admissible) {
        consider(st.pending_w.front(), 6, 0);
      }
      if (!found) {
        continue;
      }

      const OpId op = best.op;
      const double start = std::max(now, best.ready);
      const double end = start + Duration(op.kind);
      done_[index_(op)] = end;
      built.order[static_cast<std::size_t>(stage)].push_back(op);
      switch (op.kind) {
        case OpKind::kForward:
          ++st.retained;
          ++st.f_next[op.chunk == stage ? 0 : 1];
          st.prefer_backward = true;
          break;
        case OpKind::kBackward:
          ++st.b_next[op.chunk == stage ? 0 : 1];
          st.pending_w.push_back({OpKind::kWeightGrad, op.micro, 0, op.chunk});
          st.prefer_backward = false;
          break;
        default:  // kWeightGrad
          --st.retained;
          st.pending_w.pop_front();
          break;
      }
      st.peak_units = std::max(
          st.peak_units, st.retained + options_.act_grad_weight *
                                           static_cast<double>(st.pending_w.size()));
      st.free_at = end;
      --remaining;
      scheduled_any = true;
      next_event = std::min(next_event, end);
    }

    if (scheduled_any) {
      continue;  // other stages may start at the same instant
    }
    MEPIPE_CHECK_LT(next_event, kInfinity)
        << "ZB-V construction deadlocked with " << remaining
        << " ops left; the retained-forward cap is likely below 2";
    now = next_event;
  }

  built.makespan = 0.0;
  built.peak_activation_units = 0.0;
  for (const StageState& st : state_) {
    built.makespan = std::max(built.makespan, st.free_at);
    built.peak_activation_units = std::max(built.peak_activation_units, st.peak_units);
  }
  return built;
}

constexpr FillPolicy kFillTrials[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

// The shared validation + cap/budget resolution of the public entry
// points. Returns the resolved retained-forward cap.
int ResolveZbvCap(int stages, const ZbvOptions& options) {
  MEPIPE_CHECK_GT(options.f_time, 0.0);
  MEPIPE_CHECK_GT(options.b_time, 0.0);
  MEPIPE_CHECK_GT(options.w_time, 0.0);
  MEPIPE_CHECK_GE(options.transfer_time, 0.0);
  MEPIPE_CHECK_GE(options.act_grad_weight, 0.0);
  MEPIPE_CHECK_GE(options.activation_budget_units, 0.0);
  const int cap = options.max_retained > 0 ? options.max_retained : 2 * stages;
  MEPIPE_CHECK_GE(cap, 2) << "ZB-V needs both legs of a micro-batch in flight";
  return cap;
}

double ResolveZbvBudget(int cap, const ZbvOptions& options) {
  return options.activation_budget_units > 0.0 ? options.activation_budget_units
                                               : static_cast<double>(cap);
}

}  // namespace

int ZbvMaxRetainedForwards(int stages, int micros) { return 2 * std::min(stages, micros); }

std::vector<ZbvFillCandidate> ZbvFillCandidates(int stages, int micros,
                                                const ZbvOptions& options) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.virtual_chunks = 2;
  problem.micros = micros;
  problem.split_backward = true;
  problem.placement = ChunkPlacement::kVShape;
  problem.Validate();
  const int cap = ResolveZbvCap(stages, options);
  const double budget = ResolveZbvBudget(cap, options);
  std::vector<ZbvFillCandidate> candidates;
  for (const FillPolicy policy : kFillTrials) {
    const Built built = Builder(problem, options, cap, policy).Run();
    candidates.push_back({policy.alternate, policy.w_eager, built.makespan,
                          built.peak_activation_units,
                          built.peak_activation_units <= budget + 1e-9});
  }
  return candidates;
}

Schedule HandcraftedZbvSchedule(int stages, int micros, const ZbvOptions& options) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.virtual_chunks = 2;
  problem.micros = micros;
  problem.split_backward = true;
  problem.placement = ChunkPlacement::kVShape;
  problem.Validate();
  const int cap = ResolveZbvCap(stages, options);
  const double budget = ResolveZbvBudget(cap, options);

  // Memory-aware fill selection: a fill within the activation budget
  // always beats one that blows it, and among fills on the same side of
  // the budget the smaller makespan wins (first-tried wins exact ties,
  // as before). When no fill fits — the budget is below what the
  // construction can do at all — the ranking degrades to peak-first so
  // the least-memory fill is returned instead of throwing.
  Built best;
  bool best_feasible = false;
  for (const FillPolicy policy : kFillTrials) {
    Built built = Builder(problem, options, cap, policy).Run();
    const bool feasible = built.peak_activation_units <= budget + 1e-9;
    const auto key = [](bool fits, const Built& b) {
      return std::make_tuple(!fits, fits ? 0.0 : b.peak_activation_units, b.makespan);
    };
    if (best.order.empty() || key(feasible, built) < key(best_feasible, best)) {
      best = std::move(built);
      best_feasible = feasible;
    }
  }

  Schedule schedule;
  schedule.problem = problem;
  schedule.method = "ZBV";
  schedule.stage_ops = std::move(best.order);
  schedule.deferred_wgrad = false;
  ValidateSchedule(schedule);
  return schedule;
}

}  // namespace mepipe::sched
