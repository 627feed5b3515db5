#include "sched/synth.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "sched/list_scheduler.h"
#include "sched/validate.h"
#include "sched/zbv.h"

namespace mepipe::sched {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

// The composer's candidate rank: the pair (kind preference, visit term),
// lower first, ordered lexicographically. The visit term is below
// v <= INT_MAX < 2^32, so it can never carry into the kind preference.
// One integer keeps the (rank, ready, micro, chunk) comparison in
// Composer::Pick, the composer's hottest path, a scalar compare.
constexpr std::int64_t PairRank(int kind, int visit) {
  return (static_cast<std::int64_t>(kind) << 32) + visit;
}

// The fill-policy axes:
//   alternate — when an F and a B are both ready, prefer the opposite of
//               what just ran instead of strictly draining backwards;
//   w_eager   — pending weight gradients may fill any idle slot, instead
//               of running only when memory pressure forces one or
//               during the final drain. Meaningless for fused backward.
struct FillPolicy {
  bool alternate = true;
  bool w_eager = true;
};

// Chunks owned by each stage, ascending — chunk index increases along
// the forward chain for both placements, so this is also the order the
// forward wave visits the stage ("visit order").
std::vector<std::vector<int>> LocalChunks(const PipelineProblem& problem) {
  std::vector<std::vector<int>> local(static_cast<std::size_t>(problem.stages));
  for (int chunk = 0; chunk < problem.num_chunks(); ++chunk) {
    local[static_cast<std::size_t>(problem.stage_of_chunk(chunk))].push_back(chunk);
  }
  return local;
}

// Earliest-start DP over the dependency DAG under infinite resources.
// Micro-batches are independent (no inter-micro dependencies at s=1),
// so one pass over the chunk chains covers every micro.
struct EarliestStarts {
  std::vector<double> forward;   // earliest F start per chunk
  std::vector<double> backward;  // earliest B start per chunk
};

EarliestStarts ComputeEarliestStarts(const PipelineProblem& problem,
                                     const SynthOptions& options) {
  const int chunks = problem.num_chunks();
  EarliestStarts es;
  es.forward.resize(static_cast<std::size_t>(chunks), 0.0);
  es.backward.resize(static_cast<std::size_t>(chunks), 0.0);
  for (int g = 1; g < chunks; ++g) {
    const bool cross = problem.stage_of_chunk(g) != problem.stage_of_chunk(g - 1);
    es.forward[static_cast<std::size_t>(g)] = es.forward[static_cast<std::size_t>(g - 1)] +
                                              options.f_time +
                                              (cross ? options.transfer_time : 0.0);
  }
  es.backward[static_cast<std::size_t>(chunks - 1)] =
      es.forward[static_cast<std::size_t>(chunks - 1)] + options.f_time;
  for (int g = chunks - 2; g >= 0; --g) {
    const bool cross = problem.stage_of_chunk(g) != problem.stage_of_chunk(g + 1);
    es.backward[static_cast<std::size_t>(g)] = es.backward[static_cast<std::size_t>(g + 1)] +
                                               options.b_time +
                                               (cross ? options.transfer_time : 0.0);
  }
  return es;
}

struct Composed {
  std::vector<std::vector<OpId>> order;
  double makespan = kInfinity;
  int peak_retained = 0;
  std::vector<int> first_backward_forwards;  // realized warmup per stage
};

// The building-block composer: a list-scheduling policy
// (sched/list_scheduler.h) over (warmup offsets, fill policy) for
// arbitrary v, both placements, and fused or split backward. Both the
// synthesizer and handcrafted ZB-V run it. A stage's candidates are each
// visit's next forward and backward and, when split, its oldest pending
// W. Its deadlock-avoidance invariant: a visit-k forward reserves v-k
// cap slots, so later-visit forwards (the ones that unlock the backward
// chain) are always admissible when earlier ones are.
class Composer {
 public:
  Composer(const PipelineProblem& problem, const SynthOptions& options,
           const std::vector<std::vector<int>>& local_chunks, const std::vector<int>& caps,
           const std::vector<int>& warmup, FillPolicy policy)
      : problem_(problem),
        options_(options),
        local_(local_chunks),
        caps_(caps),
        warmup_(warmup),
        policy_(policy),
        kernel_(problem, problem.split_backward, options.transfer_time),
        state_(static_cast<std::size_t>(problem.stages)) {
    for (StageState& st : state_) {
      st.f_next.assign(static_cast<std::size_t>(problem.virtual_chunks), 0);
      st.b_next.assign(static_cast<std::size_t>(problem.virtual_chunks), 0);
    }
  }

  // Throws CheckError when the (warmup, cap) assignment deadlocks.
  Composed Run();

  // The ListScheduler policy.
  void Unlocked(int, const OpId&) {}  // candidates are the per-visit cursors
  std::optional<ListScheduler::Choice> Pick(int stage, double horizon, double& next_event);
  double Duration(int, const OpId& op) const {
    switch (op.kind) {
      case OpKind::kForward:
        return options_.f_time;
      case OpKind::kBackward:
        return options_.b_time;
      default:
        return options_.w_time;
    }
  }
  void Scheduled(int stage, const OpId& op);

 private:
  struct StageState {
    std::vector<int> f_next;  // next micro to forward, per visit
    std::vector<int> b_next;
    std::deque<OpId> pending_w;  // Ws whose B has run, FIFO (split only)
    int retained = 0;            // chunk-forwards awaiting their release
    int peak_retained = 0;
    int forwards_done = 0;
    int backwards_done = 0;
    int first_backward_forwards = -1;  // forwards_done when the first B ran
    bool prefer_backward = false;
  };

  const PipelineProblem& problem_;
  const SynthOptions& options_;
  const std::vector<std::vector<int>>& local_;
  const std::vector<int>& caps_;
  const std::vector<int>& warmup_;
  const FillPolicy policy_;
  ListScheduler kernel_;
  std::vector<StageState> state_;
  std::size_t picked_visit_ = 0;  // visit of the F or B Pick returned
};

std::optional<ListScheduler::Choice> Composer::Pick(int stage, double horizon,
                                                    double& next_event) {
  const int n = problem_.micros;
  const int v = problem_.virtual_chunks;
  const int stage_forwards = n * v;  // as many backwards
  StageState& st = state_[static_cast<std::size_t>(stage)];
  const auto& chunks = local_[static_cast<std::size_t>(stage)];
  const bool f_left = st.forwards_done < stage_forwards;
  const bool b_left = st.backwards_done < stage_forwards;

  struct Candidate {
    OpId op;
    double ready = kInfinity;
    std::int64_t rank = 0;  // PairRank
    std::size_t visit = 0;  // F and B only
  };
  Candidate best;
  bool found = false;
  bool forward_capped = false;  // a dep-ready F was blocked by the cap

  const int cap = caps_[static_cast<std::size_t>(stage)];
  auto consider = [&](const OpId& op, std::int64_t rank, int headroom, std::size_t visit) {
    const double ready = kernel_.Ready(op);
    if (ready > horizon) {  // includes kUnready: a dependency is unplaced
      next_event = std::min(next_event, ready);
      return;
    }
    if (op.kind == OpKind::kForward && st.retained > cap - headroom) {
      forward_capped = true;
      return;
    }
    if (!found || std::tie(rank, ready, op.micro, op.chunk) <
                      std::tie(best.rank, best.ready, best.op.micro, best.op.chunk)) {
      best = {op, ready, rank, visit};
      found = true;
    }
  };

  // Kind preference: with the alternate policy an F prefers to follow
  // a B and vice versa (keeps the relay feeding downstream stages);
  // without it, ready backwards always drain first.
  const int f_rank = policy_.alternate ? (st.prefer_backward ? 1 : 0) : 1;
  const int b_rank = 1 - f_rank;

  // Forwards: the later-visit forward outranks the earlier one — it
  // is the op that unlocks the local backward chain — and a visit-k
  // forward reserves v-k cap slots so later visits stay admissible.
  for (int k = 0; k < v; ++k) {
    const std::size_t visit = static_cast<std::size_t>(k);
    const int micro = st.f_next[visit];
    if (micro < n) {
      consider({OpKind::kForward, micro, 0, chunks[visit]}, PairRank(f_rank, v - 1 - k), v - k,
               visit);
    }
  }
  // Backwards are gated behind the warmup offset: the block
  // parameterization fixes the number of forwards a stage runs
  // before its first backward. The gate lifts once the stage's
  // forwards are exhausted; a gate the memory cap makes
  // unsatisfiable deadlocks, and the refiner discards the offsets.
  const bool warmup_met =
      st.forwards_done >= warmup_[static_cast<std::size_t>(stage)] || !f_left;
  if (warmup_met) {
    // All visits' backwards rank equally (dependencies and the
    // (ready, micro, chunk) tie-break order the legs naturally —
    // the zbv recipe's choice).
    for (int k = 0; k < v; ++k) {
      const std::size_t visit = static_cast<std::size_t>(k);
      const int micro = st.b_next[visit];
      if (micro < n) {
        consider({OpKind::kBackward, micro, 0, chunks[visit]}, PairRank(b_rank, 0), 0, visit);
      }
    }
  }
  const bool w_admissible = !st.pending_w.empty() &&
                            (policy_.w_eager || forward_capped || (!f_left && !b_left));
  if (w_admissible) {
    consider(st.pending_w.front(), PairRank(2, 0), 0, 0);
  }
  if (!found) {
    return std::nullopt;
  }
  picked_visit_ = best.visit;
  return ListScheduler::Choice{best.op, best.ready};
}

void Composer::Scheduled(int stage, const OpId& op) {
  StageState& st = state_[static_cast<std::size_t>(stage)];
  switch (op.kind) {
    case OpKind::kForward:
      ++st.retained;
      st.peak_retained = std::max(st.peak_retained, st.retained);
      ++st.f_next[picked_visit_];
      ++st.forwards_done;
      st.prefer_backward = true;
      break;
    case OpKind::kBackward:
      if (st.first_backward_forwards < 0) {
        st.first_backward_forwards = st.forwards_done;
      }
      ++st.b_next[picked_visit_];
      ++st.backwards_done;
      if (problem_.split_backward) {
        st.pending_w.push_back({OpKind::kWeightGrad, op.micro, 0, op.chunk});
      } else {
        --st.retained;
      }
      st.prefer_backward = false;
      break;
    default:  // kWeightGrad
      --st.retained;
      st.pending_w.pop_front();
      break;
  }
}

Composed Composer::Run() {
  const std::size_t left = kernel_.Run(*this);
  MEPIPE_CHECK_EQ(left, 0u)
      << "schedule composition deadlocked with " << left
      << " ops left; the warmup offsets are unsatisfiable under the activation budget";

  Composed composed;
  composed.order = kernel_.TakeOrder();
  composed.makespan = kernel_.makespan();
  composed.first_backward_forwards.resize(static_cast<std::size_t>(problem_.stages), 0);
  for (int stage = 0; stage < problem_.stages; ++stage) {
    const StageState& st = state_[static_cast<std::size_t>(stage)];
    composed.peak_retained = std::max(composed.peak_retained, st.peak_retained);
    composed.first_backward_forwards[static_cast<std::size_t>(stage)] =
        std::max(st.first_backward_forwards, 0);
  }
  return composed;
}

// The handcrafted ZB-V recipe is the composer at v = 2, V-shape
// placement, split backward, one retained-forward cap on every stage and
// no warmup offsets, run under each fill policy in the synthesizer's seed
// order. LocalChunks gives stage i the chunks {i, 2p-1-i}, so visit 0 is
// the V's descending leg and visit 1 its ascending leg.
constexpr FillPolicy kZbvFillTrials[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

PipelineProblem ZbvProblem(int stages, int micros) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.virtual_chunks = 2;
  problem.micros = micros;
  problem.split_backward = true;
  problem.placement = ChunkPlacement::kVShape;
  problem.Validate();
  return problem;
}

// Worst-stage peak activation in chunk-forward units over the stages'
// program orders: retained forwards plus act_grad_weight per B whose W
// has not run yet (see ZbvOptions).
double PeakActivationUnits(const std::vector<std::vector<OpId>>& order, double act_grad_weight) {
  double peak = 0.0;
  for (const auto& ops : order) {
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
        default:  // kWeightGrad
          --retained;
          --pending_w;
          break;
      }
      peak = std::max(peak, retained + act_grad_weight * static_cast<double>(pending_w));
    }
  }
  return peak;
}

// Runs the four ZB-V fills and hands each to
// `visit(policy, composed, peak_activation_units, within_budget)`.
template <typename Visitor>
void ForEachZbvFill(const PipelineProblem& problem, const ZbvOptions& options, Visitor&& visit) {
  MEPIPE_CHECK_GT(options.f_time, 0.0);
  MEPIPE_CHECK_GT(options.b_time, 0.0);
  MEPIPE_CHECK_GT(options.w_time, 0.0);
  MEPIPE_CHECK_GE(options.transfer_time, 0.0);
  MEPIPE_CHECK_GE(options.act_grad_weight, 0.0);
  MEPIPE_CHECK_GE(options.activation_budget_units, 0.0);
  const int cap = options.max_retained > 0 ? options.max_retained : 2 * problem.stages;
  MEPIPE_CHECK_GE(cap, 2) << "ZB-V needs both legs of a micro-batch in flight";
  const double budget = options.activation_budget_units > 0.0
                            ? options.activation_budget_units
                            : static_cast<double>(cap);
  SynthOptions durations;
  durations.f_time = options.f_time;
  durations.b_time = options.b_time;
  durations.w_time = options.w_time;
  durations.transfer_time = options.transfer_time;
  const std::vector<std::vector<int>> local = LocalChunks(problem);
  const std::vector<int> caps(static_cast<std::size_t>(problem.stages), cap);
  const std::vector<int> warmup(static_cast<std::size_t>(problem.stages), 0);
  for (const FillPolicy policy : kZbvFillTrials) {
    Composed composed = Composer(problem, durations, local, caps, warmup, policy).Run();
    const double peak = PeakActivationUnits(composed.order, options.act_grad_weight);
    visit(policy, std::move(composed), peak, peak <= budget + kEps);
  }
}

std::vector<int> ResolveCaps(const PipelineProblem& problem, const SynthOptions& options) {
  const int uncapped = problem.micros * problem.virtual_chunks;
  if (options.budget.empty()) {
    return std::vector<int>(static_cast<std::size_t>(problem.stages), uncapped);
  }
  MEPIPE_CHECK_EQ(static_cast<int>(options.budget.size()), problem.stages)
      << "synth budget must have one entry per stage";
  std::vector<int> caps = options.budget;
  for (int& cap : caps) {
    MEPIPE_CHECK_GE(cap, problem.virtual_chunks)
        << "a stage's budget cannot hold one micro-batch's chunk chain";
    cap = std::min(cap, uncapped);
  }
  return caps;
}

void ValidateOptions(const SynthOptions& options) {
  MEPIPE_CHECK_GT(options.f_time, 0.0);
  MEPIPE_CHECK_GT(options.b_time, 0.0);
  MEPIPE_CHECK_GT(options.w_time, 0.0);
  MEPIPE_CHECK_GE(options.transfer_time, 0.0);
  MEPIPE_CHECK_GE(options.offset_radius, 0);
  MEPIPE_CHECK_GE(options.max_leaves, 1);
}

}  // namespace

double SynthChunkChainLowerBound(const PipelineProblem& problem, const SynthOptions& options) {
  problem.Validate();
  ValidateOptions(options);
  const EarliestStarts es = ComputeEarliestStarts(problem, options);
  const double per_fb =
      options.f_time + options.b_time + (problem.split_backward ? options.w_time : 0.0);
  const double work =
      static_cast<double>(problem.micros) * problem.virtual_chunks * per_fb;
  // Critical path: one micro's full chunk chain, W tail included.
  double bound = es.backward.front() + options.b_time +
                 (problem.split_backward ? options.w_time : 0.0);
  // Ramp + serial work: a stage cannot start before the forward wave
  // first reaches it, and must execute all of its ops serially.
  for (const auto& chunks : LocalChunks(problem)) {
    bound = std::max(bound, es.forward[static_cast<std::size_t>(chunks.front())] + work);
  }
  return bound;
}

std::vector<int> SynthOneFOneBBudget(int stages, int micros) {
  std::vector<int> budget(static_cast<std::size_t>(stages));
  for (int i = 0; i < stages; ++i) {
    budget[static_cast<std::size_t>(i)] = std::max(1, std::min(micros, stages - i));
  }
  return budget;
}

std::vector<int> SynthZbvBudget(int stages, int micros) {
  return std::vector<int>(static_cast<std::size_t>(stages),
                          std::max(2, 2 * std::min(stages, micros)));
}

int ZbvMaxRetainedForwards(int stages, int micros) { return 2 * std::min(stages, micros); }

std::vector<ZbvFillCandidate> ZbvFillCandidates(int stages, int micros,
                                                const ZbvOptions& options) {
  std::vector<ZbvFillCandidate> candidates;
  ForEachZbvFill(ZbvProblem(stages, micros), options,
                 [&](FillPolicy policy, Composed composed, double peak, bool fits) {
                   candidates.push_back(
                       {policy.alternate, policy.w_eager, composed.makespan, peak, fits});
                 });
  return candidates;
}

Schedule HandcraftedZbvSchedule(int stages, int micros, const ZbvOptions& options) {
  Schedule schedule;
  schedule.problem = ZbvProblem(stages, micros);
  schedule.method = "ZBV";
  schedule.deferred_wgrad = false;
  // Memory-aware fill selection: a fill within the activation budget
  // always beats one that blows it, and among fills on the same side of
  // the budget the smaller makespan wins (first-tried wins exact ties).
  // When no fill fits, the ranking degrades to peak-first so the
  // least-memory fill is returned instead of throwing.
  std::tuple<bool, double, double> best;
  ForEachZbvFill(schedule.problem, options,
                 [&](FillPolicy, Composed composed, double peak, bool fits) {
                   const auto key = std::make_tuple(!fits, fits ? 0.0 : peak, composed.makespan);
                   if (schedule.stage_ops.empty() || key < best) {
                     best = key;
                     schedule.stage_ops = std::move(composed.order);
                   }
                 });
  ValidateSchedule(schedule);
  return schedule;
}

Schedule SynthesizeSchedule(const PipelineProblem& problem, const SynthOptions& options,
                            SynthReport* report) {
  problem.Validate();
  MEPIPE_CHECK_EQ(problem.slices, 1)
      << "the block family covers the (p, v, n) axes; slices are SVPP's dimension";
  ValidateOptions(options);
  const std::vector<int> caps = ResolveCaps(problem, options);
  const std::vector<std::vector<int>> local = LocalChunks(problem);
  const EarliestStarts es = ComputeEarliestStarts(problem, options);
  const double lower_bound = SynthChunkChainLowerBound(problem, options);

  const int p = problem.stages;
  const int total_forwards = problem.micros * problem.virtual_chunks;
  const double per_fb_tail =
      options.b_time + (problem.split_backward ? options.w_time : 0.0);

  SynthReport stats;
  stats.lower_bound = lower_bound;

  struct Incumbent {
    Composed composed;
    FillPolicy policy;
    bool valid = false;
  };
  Incumbent best;

  const auto try_compose = [&](const std::vector<int>& warmup, FillPolicy policy) {
    ++stats.leaves_evaluated;
    try {
      Composed composed = Composer(problem, options, local, caps, warmup, policy).Run();
      if (!best.valid || composed.makespan < best.composed.makespan - kEps ||
          (composed.makespan < best.composed.makespan + kEps &&
           composed.peak_retained < best.composed.peak_retained)) {
        best.composed = std::move(composed);
        best.policy = policy;
        best.valid = true;
      }
    } catch (const CheckError&) {
      // Unsatisfiable (warmup, cap) assignment — discard the leaf.
    }
  };

  // ---- seed incumbents: the greedy block compositions ----------------------
  // Emergent warmup (offset 0: dependencies and the cap shape the ramp)
  // and eager warmup (fill to the budget), under each fill policy. The
  // w axis only exists when the backward is split.
  std::vector<FillPolicy> policies;
  for (const bool alternate : {true, false}) {
    policies.push_back({alternate, true});
    if (problem.split_backward) {
      policies.push_back({alternate, false});
    }
  }
  const std::vector<int> emergent(static_cast<std::size_t>(p), 0);
  std::vector<int> eager = caps;
  for (int& w : eager) {
    w = std::min(w, total_forwards);
  }
  for (const FillPolicy& policy : policies) {
    try_compose(emergent, policy);
    try_compose(eager, policy);
  }
  MEPIPE_CHECK(best.valid) << "no seed composition is schedulable under the budget";

  // ---- branch-and-bound refinement over the warmup offsets -----------------
  // Branch each stage's offset within ±offset_radius of the incumbent's
  // realized warmup; prune with the admissible chunk-chain bound and the
  // activation cap (offsets beyond a stage's budget are never branched).
  if (options.offset_radius > 0 && best.composed.makespan > lower_bound + kEps) {
    const std::vector<int> base = best.composed.first_backward_forwards;
    std::vector<int> assigned(static_cast<std::size_t>(p), 0);
    // Lower bound of a node whose stages [0, depth) have fixed offsets:
    // stage i runs at least w_i forwards after the ramp reaches it before
    // its first backward (which also cannot precede the backward chain's
    // own earliest start), then still owes the rest of its work.
    const auto node_bound = [&](int depth) {
      double bound = lower_bound;
      for (int i = 0; i < depth; ++i) {
        const auto& chunks = local[static_cast<std::size_t>(i)];
        const double arrive = es.forward[static_cast<std::size_t>(chunks.front())];
        const double first_b =
            std::max(arrive + assigned[static_cast<std::size_t>(i)] * options.f_time,
                     es.backward[static_cast<std::size_t>(chunks.back())]);
        bound = std::max(
            bound, first_b +
                       (total_forwards - assigned[static_cast<std::size_t>(i)]) *
                           options.f_time +
                       static_cast<double>(total_forwards) * per_fb_tail);
      }
      return bound;
    };
    const auto descend = [&](auto&& self, int depth) -> void {
      if (stats.leaves_evaluated >= options.max_leaves ||
          best.composed.makespan <= lower_bound + kEps) {
        return;
      }
      if (depth == p) {
        if (assigned != base) {
          try_compose(assigned, best.policy);
        }
        return;
      }
      // Nearest offsets first, so the incumbent's neighborhood is
      // explored before the fringe.
      for (int delta = 0; delta <= options.offset_radius; ++delta) {
        for (const int sign : {1, -1}) {
          if (delta == 0 && sign < 0) {
            continue;
          }
          const int offset = base[static_cast<std::size_t>(depth)] + sign * delta;
          if (offset < 0 || offset > total_forwards) {
            continue;
          }
          if (offset > caps[static_cast<std::size_t>(depth)]) {
            ++stats.subtrees_pruned;  // activation-cap pruning
            continue;
          }
          assigned[static_cast<std::size_t>(depth)] = offset;
          if (node_bound(depth + 1) >= best.composed.makespan - kEps) {
            ++stats.subtrees_pruned;
            continue;
          }
          self(self, depth + 1);
        }
      }
    };
    descend(descend, 0);
  }

  Schedule schedule;
  schedule.problem = problem;
  schedule.method = StrFormat("Synth(v=%d,cap=%d..%d)", problem.virtual_chunks,
                              *std::min_element(caps.begin(), caps.end()),
                              *std::max_element(caps.begin(), caps.end()));
  schedule.stage_ops = std::move(best.composed.order);
  schedule.deferred_wgrad = false;  // W is part of the synthesized block
  InvariantOptions invariants;
  invariants.retained_cap = caps;
  ValidateScheduleInvariants(schedule, invariants);

  stats.makespan = best.composed.makespan;
  stats.reached_lower_bound = stats.makespan <= lower_bound + kEps;
  stats.warmup = best.composed.first_backward_forwards;
  stats.peak_retained = best.composed.peak_retained;
  if (report != nullptr) {
    *report = stats;
  }
  return schedule;
}

}  // namespace mepipe::sched
