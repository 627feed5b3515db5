#include "sched/schedule.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace mepipe::sched {

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

  // 1. Each stage's list is exactly its expected op set: every F and B
  // (and W unless deferred) of the chunks it owns, with gemm -1 and the
  // schedule's job tag, once each. A list of the expected length whose
  // ops all belong to that set, none twice, is the set. The lengths are
  // checked first, so the flag arena is never larger than the input
  // warrants, and each op passes the predicate before it indexes it.
  const bool static_w = problem.split_backward && !schedule.deferred_wgrad;
  const std::size_t expected = static_cast<std::size_t>(problem.micros) *
                               static_cast<std::size_t>(problem.slices) *
                               static_cast<std::size_t>(problem.virtual_chunks) *
                               (static_w ? 3 : 2);
  for (int stage = 0; stage < problem.stages; ++stage) {
    const std::size_t actual = schedule.stage_ops[static_cast<std::size_t>(stage)].size();
    MEPIPE_CHECK_EQ(actual, expected) << "stage " << stage << " op multiset mismatch (" << actual
                                      << " vs expected " << expected << ")";
  }
  const int chunks = problem.num_chunks();
  std::vector<int> owner(static_cast<std::size_t>(chunks));
  for (int chunk = 0; chunk < chunks; ++chunk) {
    owner[static_cast<std::size_t>(chunk)] = problem.stage_of_chunk(chunk);
  }
  // Per-op state: 0 = not listed, 1 = listed, 2 = executed (pass 2).
  const OpIndex index(problem);
  std::vector<std::uint8_t> state(index.size(), 0);
  for (int stage = 0; stage < problem.stages; ++stage) {
    for (const OpId& op : schedule.stage_ops[static_cast<std::size_t>(stage)]) {
      const bool member =
          (op.kind == OpKind::kForward || op.kind == OpKind::kBackward ||
           (static_w && op.kind == OpKind::kWeightGrad)) &&
          op.micro >= 0 && op.micro < problem.micros && op.slice >= 0 &&
          op.slice < problem.slices && op.chunk >= 0 && op.chunk < chunks &&
          owner[static_cast<std::size_t>(op.chunk)] == stage && op.gemm == -1 &&
          op.job == schedule.job;
      MEPIPE_CHECK(member) << "stage " << stage << " op multiset mismatch: " << ToString(op)
                           << " does not belong on it";
      std::uint8_t& listed = state[index(op)];
      MEPIPE_CHECK_EQ(listed, 0) << "stage " << stage << " op multiset mismatch: "
                                 << ToString(op) << " is listed twice";
      listed = 1;
    }
  }

  // 2. The program orders are jointly executable: repeatedly advance every
  // stage past ops whose dependencies have completed. W ops removed from
  // the static order (deferred) are treated as always-runnable after their
  // B, which the engine guarantees; they impose no order constraints here.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(problem.stages), 0);
  bool progressed = true;
  std::size_t remaining = expected * static_cast<std::size_t>(problem.stages);
  while (progressed && remaining > 0) {
    progressed = false;
    for (int stage = 0; stage < problem.stages; ++stage) {
      auto& at = cursor[static_cast<std::size_t>(stage)];
      const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
      while (at < ops.size()) {
        const OpId& op = ops[at];
        bool ready = true;
        ForEachDependency(problem, op,
                          [&](const Dep& dep) { ready = ready && state[index(dep.op)] == 2; });
        if (!ready) {
          break;
        }
        state[index(op)] = 2;
        ++at;
        --remaining;
        progressed = true;
      }
    }
  }
  MEPIPE_CHECK_EQ(remaining, 0u) << "schedule deadlocks: " << remaining
                                 << " ops can never execute under program order";
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
