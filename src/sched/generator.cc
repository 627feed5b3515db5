#include "sched/generator.h"

#include <algorithm>
#include <compare>
#include <optional>

#include "common/check.h"
#include "sched/list_scheduler.h"

namespace mepipe::sched {
namespace {

// The abstract transfer delay GeneratorOptions documents; the kernel's
// lookahead window is twice this.
constexpr double kTransferTime = 0.05;

// Selection key among an idle stage's candidates; lower wins. `kind` is
// the kind preference, then the earlier micro, then the within-kind walk
// (`walk`, `tie`). The key is total: within one kind and micro the last
// two fields identify the op, so selection never depends on the order
// candidates were unlocked in.
struct Rank {
  int kind;
  int micro;
  int walk;
  int tie;

  friend auto operator<=>(const Rank&, const Rank&) = default;
};

// GenerateCapped's list-scheduling policy (sched/list_scheduler.h): the
// candidates of a stage are its unlocked ops, forwards are admitted
// under the stage's in-flight cap, and Rank orders the rest.
class CappedPolicy {
 public:
  CappedPolicy(const PipelineProblem& problem, const GeneratorOptions& options,
               const ListScheduler& kernel)
      : problem_(problem),
        options_(options),
        kernel_(kernel),
        unlocked_(static_cast<std::size_t>(problem.stages)),
        inflight_(static_cast<std::size_t>(problem.stages), 0),
        fwd_scheduled_(static_cast<std::size_t>(problem.stages),
                       std::vector<int>(static_cast<std::size_t>(problem.micros), 0)),
        oldest_open_(static_cast<std::size_t>(problem.stages), 0),
        last_kind_(static_cast<std::size_t>(problem.stages), OpKind::kForward) {}

  void Unlocked(int stage, const OpId& op) {
    unlocked_[static_cast<std::size_t>(stage)].push_back(op);
  }

  std::optional<ListScheduler::Choice> Pick(int stage, double horizon, double& next_event) {
    const auto& candidates = unlocked_[static_cast<std::size_t>(stage)];
    const int cap = options_.inflight_cap.empty()
                        ? 0  // uncapped
                        : options_.inflight_cap[static_cast<std::size_t>(stage)];
    std::optional<ListScheduler::Choice> best;
    Rank best_rank{};
    for (std::size_t slot = 0; slot < candidates.size(); ++slot) {
      const OpId& op = candidates[slot];
      const double ready = kernel_.Ready(op);
      if (ready > horizon) {
        next_event = std::min(next_event, ready);
        continue;
      }
      if (op.kind == OpKind::kForward && cap > 0 && !AdmitForward(stage, op, cap)) {
        continue;  // memory cap / reservation: hold this forward back
      }
      const Rank rank = RankOf(stage, op);
      if (!best || rank < best_rank) {
        best = ListScheduler::Choice{op, ready};
        best_rank = rank;
        picked_slot_ = slot;
      }
    }
    return best;
  }

  double Duration(int stage, const OpId& op) const {
    // A split B is the activation-gradient half, about as long as F.
    const double base = op.kind == OpKind::kBackward && !problem_.split_backward ? 2.0 : 1.0;
    return options_.stage_time_scale.empty()
               ? base
               : base * options_.stage_time_scale[static_cast<std::size_t>(stage)];
  }

  void Scheduled(int stage, const OpId& op) {
    auto& candidates = unlocked_[static_cast<std::size_t>(stage)];
    candidates[picked_slot_] = candidates.back();
    candidates.pop_back();
    if (op.kind == OpKind::kForward) {
      ++inflight_[static_cast<std::size_t>(stage)];
      CountForward(stage, op);
    } else if (op.kind == OpKind::kBackward) {
      --inflight_[static_cast<std::size_t>(stage)];
    }
    if (op.kind == OpKind::kForward || op.kind == OpKind::kBackward) {
      last_kind_[static_cast<std::size_t>(stage)] = op.kind;
    }
  }

 private:
  // Admission control for forwards under the memory cap. Admitting any
  // ready forward greedily can deadlock for v > 1: early chunks of new
  // micro-batches fill the cap, starving the oldest micro's later-chunk
  // forwards, whose backward chain is the only thing that frees memory.
  // Rule: always leave enough headroom for the oldest forward-incomplete
  // micro-batch on this stage to finish its remaining v·s forwards.
  bool AdmitForward(int stage, const OpId& op, int cap) const {
    const int in_flight = inflight_[static_cast<std::size_t>(stage)];
    if (in_flight >= cap) {
      return false;
    }
    const int oldest = oldest_open_[static_cast<std::size_t>(stage)];
    if (oldest == problem_.micros || op.micro <= oldest) {
      return true;  // the oldest micro itself is never starved
    }
    const int remaining = problem_.virtual_chunks * problem_.slices -
                          fwd_scheduled_[static_cast<std::size_t>(stage)]
                                        [static_cast<std::size_t>(oldest)];
    return in_flight + 1 + remaining <= cap;
  }

  // Records a scheduled forward and advances the stage's oldest-open
  // micro past every micro whose forwards are now all scheduled.
  void CountForward(int stage, const OpId& op) {
    auto& scheduled = fwd_scheduled_[static_cast<std::size_t>(stage)];
    ++scheduled[static_cast<std::size_t>(op.micro)];
    const int per_micro = problem_.virtual_chunks * problem_.slices;
    int& oldest = oldest_open_[static_cast<std::size_t>(stage)];
    while (oldest < problem_.micros && scheduled[static_cast<std::size_t>(oldest)] >= per_micro) {
      ++oldest;
    }
  }

  // In backward-first (1F1B/SVPP) mode the steady state must *alternate*
  // F and B: always draining ready backwards back-to-back starves
  // downstream stages of forwards and reopens bubbles, so when both kinds
  // are ready we prefer the opposite of what just ran. GPipe mode simply
  // prefers F. W runs only when no F or B competes. Within a kind:
  // earlier micro first; forwards walk chunks upward and slices within a
  // chunk; backwards and W walk chunks downward and slices downward (the
  // dependency direction).
  Rank RankOf(int stage, const OpId& op) const {
    const bool prefer_backward =
        options_.backward_first &&
        last_kind_[static_cast<std::size_t>(stage)] != OpKind::kBackward;
    switch (op.kind) {
      case OpKind::kForward:
        return {prefer_backward ? 1 : 0, op.micro, op.chunk, op.slice};
      case OpKind::kBackward:
        if (options_.child_count_backward_priority) {
          // More transitive children first (§4.3); equal counts fall to
          // StageOps order — chunk, then slice.
          return {prefer_backward ? 0 : 1, op.micro, -((op.slice + 1) * (op.chunk + 1) - 1),
                  op.chunk * problem_.slices + op.slice};
        }
        return {prefer_backward ? 0 : 1, op.micro, -op.chunk, -op.slice};
      default:  // kWeightGrad, the only other kind generation places
        return {2, op.micro, -op.chunk, -op.slice};
    }
  }

  const PipelineProblem& problem_;
  const GeneratorOptions& options_;
  const ListScheduler& kernel_;
  // Unlocked, unscheduled ops per stage, in no particular order (Rank is
  // total); swap-removed when scheduled.
  std::vector<std::vector<OpId>> unlocked_;
  std::size_t picked_slot_ = 0;  // unlocked_ slot of the op Pick returned
  std::vector<int> inflight_;  // retained forwards per stage
  // Forwards already scheduled per (stage, micro) — drives the
  // reservation-based admission that keeps capped generation
  // deadlock-free (see AdmitForward).
  std::vector<std::vector<int>> fwd_scheduled_;
  // Per stage, the oldest micro whose forwards are not all scheduled
  // (`micros` once every forward is). fwd_scheduled_ only grows, so the
  // pointer only moves forward.
  std::vector<int> oldest_open_;
  // Last compute kind scheduled per stage; drives 1F1B-style alternation.
  std::vector<OpKind> last_kind_;
};

}  // namespace

const char* GeneratorIssueCodeName(GeneratorIssue::Code code) {
  switch (code) {
    case GeneratorIssue::Code::kInflightCapArity:
      return "inflight-cap-arity";
    case GeneratorIssue::Code::kStageTimeScaleArity:
      return "stage-time-scale-arity";
    case GeneratorIssue::Code::kNonPositiveTimeScale:
      return "non-positive-time-scale";
    case GeneratorIssue::Code::kNegativeInflightCap:
      return "negative-inflight-cap";
  }
  return "?";
}

std::vector<GeneratorIssue> GeneratorOptions::Validate(int stages) const {
  std::vector<GeneratorIssue> issues;
  const auto add = [&](GeneratorIssue::Code code, int stage, std::string message) {
    issues.push_back({code, stage, std::move(message)});
  };
  if (!inflight_cap.empty() && static_cast<int>(inflight_cap.size()) != stages) {
    add(GeneratorIssue::Code::kInflightCapArity, -1,
        "inflight_cap has " + std::to_string(inflight_cap.size()) + " entries for " +
            std::to_string(stages) + " stages");
  } else {
    for (std::size_t i = 0; i < inflight_cap.size(); ++i) {
      if (inflight_cap[i] < 0) {
        add(GeneratorIssue::Code::kNegativeInflightCap, static_cast<int>(i),
            "inflight_cap[" + std::to_string(i) + "] = " + std::to_string(inflight_cap[i]));
      }
    }
  }
  if (!stage_time_scale.empty() && static_cast<int>(stage_time_scale.size()) != stages) {
    add(GeneratorIssue::Code::kStageTimeScaleArity, -1,
        "stage_time_scale has " + std::to_string(stage_time_scale.size()) + " entries for " +
            std::to_string(stages) + " stages");
  } else {
    for (std::size_t i = 0; i < stage_time_scale.size(); ++i) {
      if (!(stage_time_scale[i] > 0.0)) {  // also catches NaN
        add(GeneratorIssue::Code::kNonPositiveTimeScale, static_cast<int>(i),
            "stage_time_scale[" + std::to_string(i) + "] = " +
                std::to_string(stage_time_scale[i]));
      }
    }
  }
  return issues;
}

std::vector<int> CapSchedule(int stages, int f, int min_cap) {
  MEPIPE_CHECK_GE(f, min_cap) << "cap f below the schedulability floor v*s";
  std::vector<int> caps(static_cast<std::size_t>(stages));
  for (int i = 0; i < stages; ++i) {
    caps[static_cast<std::size_t>(i)] = std::max(min_cap, f - i);
  }
  return caps;
}

Schedule GenerateCapped(const PipelineProblem& problem, const GeneratorOptions& options,
                        std::string method_name) {
  problem.Validate();
  if (const std::vector<GeneratorIssue> issues = options.Validate(problem.stages);
      !issues.empty()) {
    std::string summary;
    for (const GeneratorIssue& issue : issues) {
      summary += std::string(summary.empty() ? "" : "; ") +
                 GeneratorIssueCodeName(issue.code) + ": " + issue.message;
    }
    MEPIPE_CHECK(false) << "malformed GeneratorOptions for method " << method_name << ": "
                        << summary;
  }

  const bool emit_w_static =
      problem.split_backward && options.wgrad == WgradPolicy::kLowestPriority;
  ListScheduler kernel(problem, emit_w_static, kTransferTime);
  CappedPolicy policy(problem, options, kernel);
  const std::size_t left = kernel.Run(policy);
  MEPIPE_CHECK_EQ(left, 0u) << "generator deadlocked with " << left << " ops left (method "
                            << method_name
                            << "); the in-flight cap is likely below the v*s floor";

  Schedule schedule;
  schedule.problem = problem;
  schedule.method = std::move(method_name);
  schedule.stage_ops = kernel.TakeOrder();
  schedule.deferred_wgrad = problem.split_backward && !emit_w_static;
  ValidateSchedule(schedule);
  return schedule;
}

}  // namespace mepipe::sched
