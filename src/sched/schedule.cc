#include "sched/schedule.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "sched/validate.h"

namespace mepipe::sched {
namespace {

// Per-op state in the validators' flag arena.
constexpr std::uint8_t kUnlisted = 0;
constexpr std::uint8_t kListed = 1;
constexpr std::uint8_t kExecuted = 2;

// The ops each stage must list, once each: every F and B (and W unless
// deferred) of the chunks it owns, with gemm -1 and the schedule's job
// tag. A list of size() ops that all belong, none twice, is the set.
class StageOpSet {
 public:
  explicit StageOpSet(const Schedule& schedule)
      : micros_(schedule.problem.micros),
        slices_(schedule.problem.slices),
        chunks_(schedule.problem.num_chunks()),
        job_(schedule.job),
        static_w_(schedule.problem.split_backward && !schedule.deferred_wgrad),
        owner_(static_cast<std::size_t>(chunks_)),
        size_(static_cast<std::size_t>(micros_) * static_cast<std::size_t>(slices_) *
              static_cast<std::size_t>(schedule.problem.virtual_chunks) * (static_w_ ? 3 : 2)) {
    for (int chunk = 0; chunk < chunks_; ++chunk) {
      owner_[static_cast<std::size_t>(chunk)] = schedule.problem.stage_of_chunk(chunk);
    }
  }

  std::size_t size() const { return size_; }

  // True when `op` belongs in `stage`'s list; only then may it be indexed.
  bool Contains(const OpId& op, int stage) const {
    return (op.kind == OpKind::kForward || op.kind == OpKind::kBackward ||
            (static_w_ && op.kind == OpKind::kWeightGrad)) &&
           op.micro >= 0 && op.micro < micros_ && op.slice >= 0 && op.slice < slices_ &&
           op.chunk >= 0 && op.chunk < chunks_ &&
           owner_[static_cast<std::size_t>(op.chunk)] == stage && op.gemm == -1 &&
           op.job == job_;
  }

 private:
  int micros_;
  int slices_;
  int chunks_;
  int job_;
  bool static_w_;
  std::vector<int> owner_;
  std::size_t size_;
};

// Runs the program orders of a schedule whose lists passed the op-set
// test (every listed op flagged kListed in `state`): repeatedly advance
// every stage past ops whose dependencies have executed. W ops removed
// from the static order (deferred) are treated as always-runnable after
// their B, which the engine guarantees; they impose no order constraints
// here. Returns how many listed ops can never execute. `index` is taken
// by value: the flag stores are char-typed, so through a reference every
// store would force its fields to be reloaded.
std::size_t StuckOps(const Schedule& schedule, const OpIndex index,
                     std::vector<std::uint8_t>& state) {
  const PipelineProblem& problem = schedule.problem;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(problem.stages), 0);
  std::size_t remaining = 0;
  for (const auto& ops : schedule.stage_ops) {
    remaining += ops.size();
  }
  bool progressed = true;
  while (progressed && remaining > 0) {
    progressed = false;
    for (int stage = 0; stage < problem.stages; ++stage) {
      auto& at = cursor[static_cast<std::size_t>(stage)];
      const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
      while (at < ops.size()) {
        const OpId& op = ops[at];
        bool ready = true;
        ForEachDependency(problem, op, [&](const Dep& dep) {
          ready = ready && state[index(dep.op)] == kExecuted;
        });
        if (!ready) {
          break;
        }
        state[index(op)] = kExecuted;
        ++at;
        --remaining;
        progressed = true;
      }
    }
  }
  return remaining;
}

}  // namespace

void TagJob(Schedule& schedule, int job) {
  MEPIPE_CHECK_GE(job, 0);
  schedule.job = job;
  for (auto& ops : schedule.stage_ops) {
    for (OpId& op : ops) {
      op.job = job;
    }
  }
}

void ValidateSchedule(const Schedule& schedule) {
  const PipelineProblem& problem = schedule.problem;
  problem.Validate();
  MEPIPE_CHECK_EQ(static_cast<int>(schedule.stage_ops.size()), problem.stages);
  if (schedule.deferred_wgrad) {
    MEPIPE_CHECK(problem.split_backward) << "deferred W requires split backward";
  }

  // 1. Each stage's list is exactly its op set, once each. The lengths
  // are checked first, so the flag arena is never larger than the input
  // warrants, and each op passes the membership test before it indexes
  // it.
  const StageOpSet op_set(schedule);
  for (int stage = 0; stage < problem.stages; ++stage) {
    const std::size_t actual = schedule.stage_ops[static_cast<std::size_t>(stage)].size();
    MEPIPE_CHECK_EQ(actual, op_set.size()) << "stage " << stage << " op multiset mismatch ("
                                           << actual << " vs expected " << op_set.size() << ")";
  }
  const OpIndex index(problem);
  std::vector<std::uint8_t> state(index.size(), kUnlisted);
  for (int stage = 0; stage < problem.stages; ++stage) {
    for (const OpId& op : schedule.stage_ops[static_cast<std::size_t>(stage)]) {
      MEPIPE_CHECK(op_set.Contains(op, stage))
          << "stage " << stage << " op multiset mismatch: " << ToString(op)
          << " does not belong on it";
      std::uint8_t& listed = state[index(op)];
      MEPIPE_CHECK_EQ(listed, kUnlisted) << "stage " << stage << " op multiset mismatch: "
                                         << ToString(op) << " is listed twice";
      listed = kListed;
    }
  }

  // 2. The program orders are jointly executable.
  const std::size_t stuck = StuckOps(schedule, index, state);
  MEPIPE_CHECK_EQ(stuck, 0u) << "schedule deadlocks: " << stuck
                             << " ops can never execute under program order";
}

std::string InvariantReport::Summary() const {
  std::string out;
  for (const Violation& violation : violations) {
    out += violation.invariant;
    out += ": ";
    out += violation.detail;
    out += '\n';
  }
  return out;
}

InvariantReport CheckScheduleInvariants(const Schedule& schedule,
                                        const InvariantOptions& options) {
  InvariantReport report;
  const auto add = [&report](std::string invariant, std::string detail) {
    report.violations.push_back({std::move(invariant), std::move(detail)});
  };
  const PipelineProblem& problem = schedule.problem;
  problem.Validate();

  // multiset: ValidateSchedule's op-set test, reporting every stage.
  if (static_cast<int>(schedule.stage_ops.size()) != problem.stages) {
    add("multiset", StrFormat("%d stage lists for %d stages",
                              static_cast<int>(schedule.stage_ops.size()), problem.stages));
    return report;
  }
  if (schedule.deferred_wgrad && !problem.split_backward) {
    add("multiset", "deferred W requires split backward");
  }
  const StageOpSet op_set(schedule);
  const OpIndex index(problem);
  std::vector<std::uint8_t> state(index.size(), kUnlisted);
  for (int stage = 0; stage < problem.stages; ++stage) {
    const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
    bool exact = ops.size() == op_set.size();
    for (std::size_t i = 0; exact && i < ops.size(); ++i) {
      exact = op_set.Contains(ops[i], stage) && state[index(ops[i])] == kUnlisted;
      if (exact) {
        state[index(ops[i])] = kListed;
      }
    }
    if (!exact) {
      add("multiset", StrFormat("stage %d op multiset mismatch (%d vs expected %d)", stage,
                                static_cast<int>(ops.size()), static_cast<int>(op_set.size())));
    }
  }
  if (!report.ok()) {
    return report;  // running a malformed op set would only cascade
  }

  // executable: ValidateSchedule's own pass.
  const std::size_t stuck = StuckOps(schedule, index, state);
  if (stuck > 0) {
    add("executable", StrFormat("program order deadlocks: %d ops can never run",
                                static_cast<int>(stuck)));
    return report;
  }

  // activation-cap: the running retained-forward count against the
  // per-stage cap, the count core/memory_model multiplies into bytes.
  const std::vector<int>& cap = options.retained_cap;
  if (cap.empty()) {
    return report;
  }
  if (static_cast<int>(cap.size()) != problem.stages) {
    add("activation-cap", StrFormat("cap has %d entries for %d stages",
                                    static_cast<int>(cap.size()), problem.stages));
    return report;
  }
  for (int stage = 0; stage < problem.stages; ++stage) {
    const int peak = PeakRetainedForwards(schedule, stage);
    const int limit = cap[static_cast<std::size_t>(stage)];
    if (limit > 0 && peak > limit) {
      add("activation-cap", StrFormat("stage %d retains %d forwards, cap %d", stage, peak, limit));
    }
  }
  return report;
}

void ValidateScheduleInvariants(const Schedule& schedule, const InvariantOptions& options) {
  const InvariantReport report = CheckScheduleInvariants(schedule, options);
  MEPIPE_CHECK(report.ok()) << "schedule '" << schedule.method << "' violates invariants:\n"
                            << report.Summary();
}

std::size_t FirstBackwardIndex(const Schedule& schedule, int stage) {
  const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kBackward) {
      return i;
    }
  }
  return ops.size();
}

int PeakRetainedForwards(const Schedule& schedule, int stage) {
  const bool release_on_w = schedule.problem.split_backward && !schedule.deferred_wgrad;
  int current = 0;
  int peak = 0;
  for (const OpId& op : schedule.stage_ops[static_cast<std::size_t>(stage)]) {
    switch (op.kind) {
      case OpKind::kForward:
        peak = std::max(peak, ++current);
        break;
      case OpKind::kBackward:
        if (!release_on_w) {
          --current;
        }
        break;
      case OpKind::kWeightGrad:
        if (release_on_w) {
          --current;
        }
        break;
      case OpKind::kWeightGradGemm:
      case OpKind::kDpSync:
        break;
    }
  }
  return peak;
}

}  // namespace mepipe::sched
