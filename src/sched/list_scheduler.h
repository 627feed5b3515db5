// The event-driven list-scheduling kernel behind sched/'s two schedule
// builders: GenerateCapped (sched/generator.h) and the synthesizer's
// composer (sched/synth.h), which also builds handcrafted ZB-V. Both
// turn a pipeline problem into static per-stage program orders by
// simulating abstract time; they differ only in which ops compete for
// an idle stage, which of them wins, what each costs and what each
// placement changes. That part is the policy; the kernel owns the rest:
//
//   clock       Each round visits the stages in index order. A stage
//               with ops left that is free by `now` asks the policy for
//               one op and places it at max(now, ready). A round that
//               places nothing advances the clock to the earliest
//               pending event — a stage freeing up or a candidate
//               becoming ready — and with no event left the order is
//               deadlocked.
//   readiness   Pushed, not rescanned. Every op slot (sched::OpIndex)
//               holds its count of unplaced dependencies and the max
//               over its placed ones of (end + transfer when the edge
//               crosses stages). Placing an op feeds its dependents — the
//               exact inverse of ForEachDependency — so an op waits
//               until its count reaches zero and is ready from then on,
//               at its accumulated time.
//   lookahead   An op ready by now + 2 × transfer still competes for the
//               current slot (the stage idles until it is ready).
//               Without the window, a ready backward that beats an
//               in-flight forward by one transfer latency steals the
//               slot and delays the forward relay by a whole backward —
//               a limit cycle that inflates the steady-state bubble.
//
// A policy is any class with these members, inlined through Run's
// template parameter:
//
//   void Unlocked(int stage, const OpId& op);
//       `op`'s last dependency was placed (or it has none).
//   std::optional<ListScheduler::Choice> Pick(int stage, double horizon,
//                                             double& next_event);
//       The op idle `stage` runs next, among candidates whose Ready()
//       is at most `horizon`, with that ready time; nullopt if none
//       qualifies. Lowers `next_event` to the ready time of every
//       candidate it passed over for being beyond the horizon.
//   double Duration(int stage, const OpId& op);
//   void Scheduled(int stage, const OpId& op);
//       The kernel placed `op`, the op Pick just returned.
#ifndef MEPIPE_SCHED_LIST_SCHEDULER_H_
#define MEPIPE_SCHED_LIST_SCHEDULER_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "sched/dependency.h"
#include "sched/op.h"

namespace mepipe::sched {

class ListScheduler {
 public:
  struct Choice {
    OpId op;
    double ready = 0.0;
  };

  static constexpr double kUnready = std::numeric_limits<double>::infinity();

  // Places every F and B op of a validated `problem`, and every W op
  // when `emit_w` is set; `transfer` delays each cross-stage edge.
  ListScheduler(const PipelineProblem& problem, bool emit_w, double transfer)
      : problem_(problem),
        emit_w_(emit_w),
        transfer_(transfer),
        index_(problem),
        stage_of_(static_cast<std::size_t>(problem.num_chunks())),
        unmet_(index_.size(), 0),
        ready_(unmet_.size(), 0.0),
        stage_free_(static_cast<std::size_t>(problem.stages), 0.0),
        stage_left_(static_cast<std::size_t>(problem.stages), OpsPerStage(problem, emit_w)),
        left_(static_cast<std::size_t>(problem.stages) * OpsPerStage(problem, emit_w)),
        order_(static_cast<std::size_t>(problem.stages)) {
    for (int chunk = 0; chunk < problem.num_chunks(); ++chunk) {
      stage_of_[static_cast<std::size_t>(chunk)] = problem.stage_of_chunk(chunk);
    }
  }

  // Earliest start `op`'s placed dependencies allow; kUnready while one
  // of them is still unplaced.
  double Ready(const OpId& op) const {
    const std::size_t slot = index_(op);
    return unmet_[slot] == 0 ? ready_[slot] : kUnready;
  }

  // Places every op under `policy`. Returns the number of ops left
  // unplaced: 0, or how many remained when the order deadlocked.
  template <typename Policy>
  [[nodiscard]] std::size_t Run(Policy& policy);

  // Latest end of any placed op.
  double makespan() const {
    double latest = 0.0;
    for (const double free_at : stage_free_) {
      latest = std::max(latest, free_at);
    }
    return latest;
  }

  // Each stage's ops in placement order; call once, after Run.
  std::vector<std::vector<OpId>> TakeOrder() { return std::move(order_); }

 private:
  static std::size_t OpsPerStage(const PipelineProblem& problem, bool emit_w) {
    return static_cast<std::size_t>(problem.micros) * static_cast<std::size_t>(problem.slices) *
           static_cast<std::size_t>(problem.virtual_chunks) * (emit_w ? 3 : 2);
  }
  template <typename Visitor>
  void ForEachPlaced(Visitor&& visit) const;
  template <typename Visitor>
  void ForEachDependent(const OpId& op, Visitor&& visit) const;
  template <typename Policy>
  void Seed(Policy& policy);
  int stage_of(int chunk) const { return stage_of_[static_cast<std::size_t>(chunk)]; }

  const PipelineProblem& problem_;
  const bool emit_w_;
  const double transfer_;
  const OpIndex index_;
  std::vector<int> stage_of_;   // owning stage per chunk
  std::vector<int> unmet_;      // unplaced dependencies per op slot
  std::vector<double> ready_;   // max(dep end + transfer) over placed deps
  std::vector<double> stage_free_;
  std::vector<std::size_t> stage_left_;
  std::size_t left_;
  std::vector<std::vector<OpId>> order_;
};

template <typename Policy>
std::size_t ListScheduler::Run(Policy& policy) {
  Seed(policy);
  const double lookahead = 2.0 * transfer_;
  double now = 0.0;
  while (left_ > 0) {
    bool placed = false;
    double next_event = kUnready;
    for (int stage = 0; stage < problem_.stages; ++stage) {
      const std::size_t s = static_cast<std::size_t>(stage);
      if (stage_left_[s] == 0) {
        continue;
      }
      if (stage_free_[s] > now) {
        next_event = std::min(next_event, stage_free_[s]);
        continue;
      }
      const std::optional<Choice> choice = policy.Pick(stage, now + lookahead, next_event);
      if (!choice) {
        continue;
      }
      const double end = std::max(now, choice->ready) + policy.Duration(stage, choice->op);
      ForEachDependent(choice->op, [&](const OpId& child, bool cross) {
        const std::size_t slot = index_(child);
        ready_[slot] = std::max(ready_[slot], end + (cross ? transfer_ : 0.0));
        if (--unmet_[slot] == 0) {
          policy.Unlocked(stage_of(child.chunk), child);
        }
      });
      order_[s].push_back(choice->op);
      policy.Scheduled(stage, choice->op);
      stage_free_[s] = end;
      --stage_left_[s];
      --left_;
      placed = true;
      next_event = std::min(next_event, end);
    }
    if (placed) {
      continue;  // other stages may start at the same instant
    }
    if (next_event == kUnready) {
      break;  // deadlocked: nothing runs and nothing will become ready
    }
    now = next_event;
  }
  return left_;
}

// Every placed op in OpIndex order: the F and B planes, then the W
// plane when W is emitted.
template <typename Visitor>
void ListScheduler::ForEachPlaced(Visitor&& visit) const {
  const int kinds = emit_w_ ? 3 : 2;  // kForward, kBackward(, kWeightGrad)
  for (int kind = 0; kind < kinds; ++kind) {
    for (int micro = 0; micro < problem_.micros; ++micro) {
      for (int slice = 0; slice < problem_.slices; ++slice) {
        for (int chunk = 0; chunk < problem_.num_chunks(); ++chunk) {
          visit(OpId{static_cast<OpKind>(kind), micro, slice, chunk});
        }
      }
    }
  }
}

// Invokes visit(child, cross) for every placed op that depends on `op`:
// the exact inverse of ForEachDependency, restricted to the placed kinds
// (no Wg split, no DpSync buckets; W only when emitted).
template <typename Visitor>
void ListScheduler::ForEachDependent(const OpId& op, Visitor&& visit) const {
  const int last_chunk = problem_.num_chunks() - 1;
  const int stage = stage_of(op.chunk);
  switch (op.kind) {
    case OpKind::kForward:
      if (op.chunk < last_chunk) {
        visit(OpId{OpKind::kForward, op.micro, op.slice, op.chunk + 1},
              stage_of(op.chunk + 1) != stage);
      } else {
        visit(OpId{OpKind::kBackward, op.micro, op.slice, last_chunk}, false);
      }
      if (op.slice + 1 < problem_.slices) {
        visit(OpId{OpKind::kForward, op.micro, op.slice + 1, op.chunk}, false);
      }
      break;
    case OpKind::kBackward:
      if (op.chunk > 0) {
        visit(OpId{OpKind::kBackward, op.micro, op.slice, op.chunk - 1},
              stage_of(op.chunk - 1) != stage);
      }
      if (op.slice > 0) {
        visit(OpId{OpKind::kBackward, op.micro, op.slice - 1, op.chunk}, false);
      }
      if (emit_w_) {
        visit(OpId{OpKind::kWeightGrad, op.micro, op.slice, op.chunk}, false);
      }
      break;
    case OpKind::kWeightGrad:
    case OpKind::kWeightGradGemm:
    case OpKind::kDpSync:
      break;  // nothing the kernel places depends on these
  }
}

// Counts each op's dependencies by walking every op's dependents, so the
// counts are exactly what placing them pays off; ops left with none
// start unlocked.
template <typename Policy>
void ListScheduler::Seed(Policy& policy) {
  ForEachPlaced([&](const OpId& op) {
    ForEachDependent(op, [&](const OpId& child, bool) { ++unmet_[index_(child)]; });
  });
  ForEachPlaced([&](const OpId& op) {
    if (unmet_[index_(op)] == 0) {
      policy.Unlocked(stage_of(op.chunk), op);
    }
  });
}

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_LIST_SCHEDULER_H_
