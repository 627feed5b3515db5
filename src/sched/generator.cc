#include "sched/generator.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "sched/dependency.h"

namespace mepipe::sched {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct GeneratorState {
  const PipelineProblem& problem;
  const GeneratorOptions& options;
  const OpIndex index;

  // Incremental readiness over three dense kind-planes (F, B, W — the
  // only kinds generation schedules). `unmet` counts unscheduled
  // dependencies; `ready` accumulates max(dep end + transfer) as deps
  // finish and is final once unmet reaches zero. This replaces a
  // per-round dependency walk over every pending op — same values, same
  // selection, just computed once per edge.
  std::vector<int> unmet;
  std::vector<double> ready;
  // Position of each op in its stage's StageOps order. Ties in Priority
  // (possible between B and an immediate W) fall back to this, which is
  // exactly the order the former full pending scan visited them in.
  std::vector<int> pos;
  std::vector<double> stage_free;
  std::vector<int> inflight;          // retained forwards per stage
  // Ops whose dependencies have all been scheduled, per owning stage —
  // the only ops the selection scan needs to look at. Unordered (the
  // (Priority, pos) key makes selection order-free); swap-removed when
  // scheduled.
  std::vector<std::vector<OpId>> unlocked;
  std::vector<std::size_t> stage_left;     // unscheduled ops per stage
  std::vector<std::vector<OpId>> order;    // output program order
  // Forwards already scheduled per (stage, micro) — drives the
  // reservation-based admission that keeps capped generation
  // deadlock-free (see AdmitForward).
  std::vector<std::vector<int>> fwd_scheduled;
  // Per stage, the oldest micro whose forwards are not all scheduled
  // (`micros` once every forward is). fwd_scheduled only grows, so the
  // pointer only moves forward.
  std::vector<int> oldest_open;

  explicit GeneratorState(const PipelineProblem& p, const GeneratorOptions& o)
      : problem(p),
        options(o),
        index(p),
        unmet(index.size(), 0),
        ready(unmet.size(), 0.0),
        pos(unmet.size(), 0),
        stage_free(static_cast<std::size_t>(p.stages), 0.0),
        inflight(static_cast<std::size_t>(p.stages), 0),
        unlocked(static_cast<std::size_t>(p.stages)),
        stage_left(static_cast<std::size_t>(p.stages), 0),
        order(static_cast<std::size_t>(p.stages)),
        fwd_scheduled(static_cast<std::size_t>(p.stages),
                      std::vector<int>(static_cast<std::size_t>(p.micros), 0)),
        oldest_open(static_cast<std::size_t>(p.stages), 0),
        last_kind(static_cast<std::size_t>(p.stages), OpKind::kForward) {}

  // Admission control for forwards under the memory cap. Admitting any
  // ready forward greedily can deadlock for v > 1: early chunks of new
  // micro-batches fill the cap, starving the oldest micro's later-chunk
  // forwards, whose backward chain is the only thing that frees memory.
  // Rule: always leave enough headroom for the oldest forward-incomplete
  // micro-batch on this stage to finish its remaining v·s forwards.
  bool AdmitForward(int stage, const OpId& op, int cap) const {
    const int in_flight = inflight[static_cast<std::size_t>(stage)];
    if (in_flight >= cap) {
      return false;
    }
    const int oldest = oldest_open[static_cast<std::size_t>(stage)];
    if (oldest == problem.micros || op.micro <= oldest) {
      return true;  // the oldest micro itself is never starved
    }
    const int remaining = problem.virtual_chunks * problem.slices -
                          fwd_scheduled[static_cast<std::size_t>(stage)]
                                       [static_cast<std::size_t>(oldest)];
    return in_flight + 1 + remaining <= cap;
  }

  // Records a scheduled forward and advances the stage's oldest-open
  // micro past every micro whose forwards are now all scheduled.
  void CountForward(int stage, const OpId& op) {
    auto& scheduled = fwd_scheduled[static_cast<std::size_t>(stage)];
    ++scheduled[static_cast<std::size_t>(op.micro)];
    const int per_micro = problem.virtual_chunks * problem.slices;
    int& oldest = oldest_open[static_cast<std::size_t>(stage)];
    while (oldest < problem.micros && scheduled[static_cast<std::size_t>(oldest)] >= per_micro) {
      ++oldest;
    }
  }

  int cap(int stage) const {
    if (options.inflight_cap.empty()) {
      return 0;  // uncapped
    }
    return options.inflight_cap[static_cast<std::size_t>(stage)];
  }

  double duration(int stage, const OpId& op) const {
    double base = 1.0;
    switch (op.kind) {
      case OpKind::kForward:
        base = options.f_time;
        break;
      case OpKind::kBackward:
        base = options.b_time;
        break;
      case OpKind::kWeightGrad:
      case OpKind::kWeightGradGemm:
      case OpKind::kDpSync:  // comm op; never generated into program orders
        base = options.w_time;
        break;
    }
    if (!options.stage_time_scale.empty()) {
      base *= options.stage_time_scale[static_cast<std::size_t>(stage)];
    }
    return base;
  }

  // Register a to-be-scheduled op: its stage-order position (the former
  // scan order, used as the tie-break) and its dependency count (deps
  // are always F/B ops, which generation always schedules). Dep-free ops
  // start unlocked.
  void Seed(int stage, const OpId& op, int position) {
    const std::size_t idx = index(op);
    pos[idx] = position;
    int count = 0;
    ForEachDependency(problem, op, [&](const Dep&) { ++count; });
    unmet[idx] = count;
    if (count == 0) {
      unlocked[static_cast<std::size_t>(stage)].push_back(op);
    }
    ++stage_left[static_cast<std::size_t>(stage)];
  }

  // `op` finished at `end`: feed its completion into every dependent op
  // generation will schedule. Exact inverse of ForEachDependency,
  // restricted to the generated kinds (no Wg split, no DpSync buckets;
  // W only when emitted statically).
  void MarkDone(const OpId& op, double end, bool emit_w_static) {
    const auto feed = [&](OpKind kind, int micro, int slice, int chunk, bool cross) {
      const OpId child{kind, micro, slice, chunk};
      const std::size_t idx = index(child);
      ready[idx] = std::max(ready[idx], end + (cross ? options.transfer_time : 0.0));
      if (--unmet[idx] == 0) {
        unlocked[static_cast<std::size_t>(problem.stage_of_chunk(chunk))].push_back(child);
      }
    };
    const int last_chunk = problem.num_chunks() - 1;
    const int stage = problem.stage_of_chunk(op.chunk);
    switch (op.kind) {
      case OpKind::kForward:
        if (op.chunk < last_chunk) {
          const bool cross = problem.stage_of_chunk(op.chunk + 1) != stage;
          feed(OpKind::kForward, op.micro, op.slice, op.chunk + 1, cross);
        } else {
          feed(OpKind::kBackward, op.micro, op.slice, last_chunk, false);
        }
        if (op.slice + 1 < problem.slices) {
          feed(OpKind::kForward, op.micro, op.slice + 1, op.chunk, false);
        }
        break;
      case OpKind::kBackward:
        if (op.chunk > 0) {
          const bool cross = problem.stage_of_chunk(op.chunk - 1) != stage;
          feed(OpKind::kBackward, op.micro, op.slice, op.chunk - 1, cross);
        }
        if (op.slice > 0) {
          feed(OpKind::kBackward, op.micro, op.slice - 1, op.chunk, false);
        }
        if (emit_w_static) {
          feed(OpKind::kWeightGrad, op.micro, op.slice, op.chunk, false);
        }
        break;
      case OpKind::kWeightGrad:
      case OpKind::kWeightGradGemm:
      case OpKind::kDpSync:
        break;  // nothing generation schedules depends on these
    }
  }

  // Last compute kind scheduled per stage; drives 1F1B-style alternation.
  std::vector<OpKind> last_kind;

  // Rank used to break ties among ops ready at the same instant. Lower is
  // better. In backward-first (1F1B/SVPP) mode the steady state must
  // *alternate* F and B: always draining ready backwards back-to-back
  // starves downstream stages of forwards and reopens bubbles, so when
  // both kinds are ready we prefer the opposite of what just ran.
  // GPipe mode simply prefers F.
  std::int64_t Priority(int stage, const OpId& op) const {
    const bool prefer_backward =
        options.backward_first &&
        last_kind[static_cast<std::size_t>(stage)] != OpKind::kBackward;
    std::int64_t kind_rank = 0;
    switch (op.kind) {
      case OpKind::kBackward:
        kind_rank = prefer_backward ? 0 : 1;
        break;
      case OpKind::kForward:
        kind_rank = prefer_backward ? 1 : 0;
        break;
      case OpKind::kWeightGrad:
      case OpKind::kWeightGradGemm:
      case OpKind::kDpSync:  // comm op; never generated into program orders
        kind_rank = (options.wgrad == WgradPolicy::kImmediate) ? 0 : 2;
        break;
    }
    // Within a kind: earlier micro first; forwards walk chunks upward and
    // slices within a chunk; backwards walk chunks downward and slices
    // downward (the dependency direction).
    const bool backwardish = op.kind != OpKind::kForward;
    if (backwardish && options.child_count_backward_priority &&
        op.kind == OpKind::kBackward) {
      // More children ⇒ smaller rank ⇒ scheduled first (§4.3).
      const std::int64_t children =
          static_cast<std::int64_t>(op.slice + 1) * (op.chunk + 1) - 1;
      const std::int64_t max_children =
          static_cast<std::int64_t>(problem.slices) * problem.num_chunks();
      return ((kind_rank * 4096 + op.micro) * 4096 * 4096) + (max_children - children);
    }
    const std::int64_t chunk_rank = backwardish ? (problem.num_chunks() - 1 - op.chunk) : op.chunk;
    const std::int64_t slice_rank = backwardish ? (problem.slices - 1 - op.slice) : op.slice;
    return ((kind_rank * 4096 + op.micro) * 4096 + chunk_rank) * 4096 + slice_rank;
  }
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
    case GeneratorIssue::Code::kNonPositiveDuration:
      return "non-positive-duration";
    case GeneratorIssue::Code::kNegativeTransfer:
      return "negative-transfer";
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
  if (!(f_time > 0.0)) {
    add(GeneratorIssue::Code::kNonPositiveDuration, -1,
        "f_time = " + std::to_string(f_time));
  }
  if (!(b_time > 0.0)) {
    add(GeneratorIssue::Code::kNonPositiveDuration, -1,
        "b_time = " + std::to_string(b_time));
  }
  if (!(w_time > 0.0)) {
    add(GeneratorIssue::Code::kNonPositiveDuration, -1,
        "w_time = " + std::to_string(w_time));
  }
  if (transfer_time < 0.0) {
    add(GeneratorIssue::Code::kNegativeTransfer, -1,
        "transfer_time = " + std::to_string(transfer_time));
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

  GeneratorState state(problem, options);
  const bool emit_w_static =
      problem.split_backward && options.wgrad != WgradPolicy::kDeferred;
  std::size_t remaining = 0;
  for (int stage = 0; stage < problem.stages; ++stage) {
    int position = 0;
    for (const OpId& op : StageOps(problem, stage)) {
      if (op.kind == OpKind::kWeightGrad && !emit_w_static) {
        continue;  // deferred to the execution engine
      }
      state.Seed(stage, op, position++);
      ++remaining;
    }
  }

  double now = 0.0;
  while (remaining > 0) {
    bool scheduled_any = false;
    double next_event = kInfinity;

    for (int stage = 0; stage < problem.stages; ++stage) {
      auto& unlocked = state.unlocked[static_cast<std::size_t>(stage)];
      const double free_at = state.stage_free[static_cast<std::size_t>(stage)];
      if (state.stage_left[static_cast<std::size_t>(stage)] == 0) {
        continue;
      }
      if (free_at > now) {
        next_event = std::min(next_event, free_at);
        continue;
      }
      // Gather candidates ready at `now` (or within the lookahead window).
      const double lookahead =
          options.lookahead >= 0 ? options.lookahead : 2.0 * options.transfer_time;
      const OpId* best = nullptr;
      std::size_t best_slot = 0;
      std::int64_t best_priority = 0;
      int best_pos = 0;
      double best_ready = 0.0;
      const int cap = state.cap(stage);
      for (std::size_t slot = 0; slot < unlocked.size(); ++slot) {
        const OpId& op = unlocked[slot];
        const std::size_t idx = state.index(op);
        const double ready = state.ready[idx];
        if (ready > now + lookahead) {
          next_event = std::min(next_event, ready);
          continue;
        }
        if (op.kind == OpKind::kForward && cap > 0 && !state.AdmitForward(stage, op, cap)) {
          continue;  // memory cap / reservation: hold this forward back
        }
        const std::int64_t priority = state.Priority(stage, op);
        const int position = state.pos[idx];
        if (best == nullptr || priority < best_priority ||
            (priority == best_priority && position < best_pos)) {
          best = &op;
          best_slot = slot;
          best_priority = priority;
          best_pos = position;
          best_ready = ready;
        }
      }
      if (best == nullptr) {
        continue;
      }
      const OpId op = *best;
      const double start = std::max(now, best_ready);
      const double end = start + state.duration(stage, op);
      state.MarkDone(op, end, emit_w_static);
      state.order[static_cast<std::size_t>(stage)].push_back(op);
      if (op.kind == OpKind::kForward) {
        ++state.inflight[static_cast<std::size_t>(stage)];
        state.CountForward(stage, op);
      } else if (op.kind == OpKind::kBackward) {
        --state.inflight[static_cast<std::size_t>(stage)];
      }
      if (op.kind == OpKind::kForward || op.kind == OpKind::kBackward) {
        state.last_kind[static_cast<std::size_t>(stage)] = op.kind;
      }
      state.stage_free[static_cast<std::size_t>(stage)] = end;
      unlocked[best_slot] = unlocked.back();
      unlocked.pop_back();
      --state.stage_left[static_cast<std::size_t>(stage)];
      --remaining;
      scheduled_any = true;
      next_event = std::min(next_event, end);
    }

    if (scheduled_any) {
      continue;  // other stages may start at the same instant
    }
    MEPIPE_CHECK_LT(next_event, kInfinity)
        << "generator deadlocked with " << remaining << " ops left (method " << method_name
        << "); the in-flight cap is likely below the v*s floor";
    now = next_event;
  }

  Schedule schedule;
  schedule.problem = problem;
  schedule.method = std::move(method_name);
  schedule.stage_ops = std::move(state.order);
  schedule.deferred_wgrad = problem.split_backward && options.wgrad == WgradPolicy::kDeferred;
  ValidateSchedule(schedule);
  return schedule;
}

}  // namespace mepipe::sched
