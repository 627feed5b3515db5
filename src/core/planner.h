// Strategy grid search (§7.1 "Baseline", §7.3 "Selection of the Optimal
// Parallel Strategy"): exhaustively evaluates the (PP, DP, CP/SPP, VP,
// recomputation) combinations a method admits and returns the fastest
// feasible one — exactly how the paper tuned every system it compares.
#ifndef MEPIPE_CORE_PLANNER_H_
#define MEPIPE_CORE_PLANNER_H_

#include <optional>
#include <vector>

#include "core/fleet.h"
#include "core/iteration.h"
#include "core/resilience.h"
#include "core/surrogate.h"

namespace mepipe::core {

// What the grid search optimizes.
//  - kIterationTime: fault-free iteration time — the paper's §7 setup.
//  - kGoodput: delivered training throughput under a failure model.
//    Each feasible candidate is priced end-to-end: its checkpoint write
//    cost follows from the strategy's worst checkpoint shard
//    (IterationResult::checkpoint_shard through CheckpointWriteCost),
//    OptimalCheckpointInterval picks the Young/Daly-refined interval for
//    that write cost, and SimulateTrainingRun measures the goodput the
//    strategy actually delivers. Candidates are ranked by
//    goodput.effective_iteration_time = iteration_time / goodput — the
//    wall-clock cost of one useful iteration — so a slightly slower
//    schedule with cheaper checkpoints or a friendlier restart scope can
//    out-rank the fault-free winner.
//  - kDollarCost: dollars per iteration — fleet rental (occupied ranks ×
//    tier $/GPU-hour × iteration time) plus WAN egress. Meaningful on the
//    fleet path (SearchBestFleetStrategy), where tiers price differently;
//    an exact-cover search rents the same whole fleet for every
//    candidate, so the ranking degenerates to kIterationTime.
enum class PlannerObjective { kIterationTime, kGoodput, kDollarCost };

struct PlannerOptions {
  IterationOptions iteration;
  // §7.1: minimal data-parallel size used to emulate large-cluster runs.
  int min_dp = 2;
  std::vector<int> pp_candidates = {2, 4, 8, 16, 32};
  // CP sizes for CP methods, SPP sizes for slice methods.
  std::vector<int> slice_candidates = {1, 2, 4, 8, 16};
  std::vector<int> vp_candidates = {1, 2};
  std::vector<int> tp_candidates = {1};  // opened up for the A100 runs
  bool allow_recompute = true;
  // Cost-model-guided pruning (§9's "automated parallelization
  // frameworks" direction): skip configurations whose lower bound
  // already exceeds the best feasible score found so far. Same winner,
  // fewer simulations. The bound (core::SurrogateLowerBound) is
  // fault-aware — straggler windows cap each stage's work rate — so
  // pruning stays on in the joint straggler × goodput search. Only
  // search_rebalanced disables it: re-partitioning moves work across
  // stages, invalidating any per-stage bound.
  bool prune = false;
  // ---- two-phase surrogate search (core/surrogate) ----
  // Phase 1 prices the whole grid with the analytic surrogate (on
  // `threads` workers), phase 2 runs the exact DES + interval solver on
  // the `surrogate_top_k` best surrogate-feasible candidates only.
  // Winner parity with the exhaustive search holds on every pinned
  // planner configuration (tested for both objectives) but is heuristic
  // in general: the surrogate's ranking must put the true winner inside
  // the top-k. Falls back to the exhaustive path under a fault plan (the
  // surrogate prices clean runs only) or when no candidate is
  // surrogate-feasible. Each candidate is built once where the search
  // can: every phase-1 worker keeps the builds of its `surrogate_top_k`
  // best candidates by (score, grid order), phase 2 runs the DES on the
  // selected ones' builds, and the winner's re-simulation prices the
  // incumbent's. At most surrogate_top_k builds per worker plus the
  // incumbent's are alive at once, and none outlives the search call.
  bool two_phase = false;
  int surrogate_top_k = 8;
  // Worker threads for the surrogate sweep: 0 = hardware concurrency,
  // 1 = serial. The winner is bit-identical regardless of thread count —
  // candidates are scored independently, ranked by (score, grid order),
  // and the exact phase runs in grid order.
  int threads = 1;
  // Optional cross-search pricing cache (not owned; thread-safe).
  // Serves repeated shapes across planner re-runs and memoizes the
  // goodput objective's per-candidate interval solve.
  SurrogateCache* cache = nullptr;
  // Evaluate every strategy under this engine-level fault plan (empty =
  // clean; overrides iteration.fault_plan when set). Value-semantic:
  // assigning a FaultPlan copies it into shared storage.
  //
  // Composes with objective = kGoodput into a *joint* straggler ×
  // goodput search: each candidate's iteration time is measured under
  // the fault plan (and, with search_rebalanced, the better of the
  // plain and rebalanced variants is kept), and that faulted/mitigated
  // iteration time is what the goodput pricing runs on — so the search
  // ranks by wall-clock cost per useful iteration with *both* straggler
  // dilation and failure/checkpoint overhead priced in one pass. With
  // either axis off the search reduces exactly to the other standalone
  // mode (pinned by tests): an empty plan + kGoodput is the pure
  // goodput search, a plan + kIterationTime the pure straggler search.
  sim::FaultPlanRef fault_plan;
  // Also evaluate each strategy's straggler-rebalanced variant
  // (core/rebalance) and keep the better of the two. Only meaningful
  // together with a fault plan.
  bool search_rebalanced = false;
  // Ranking objective (see PlannerObjective).
  PlannerObjective objective = PlannerObjective::kIterationTime;
  // Failure model pricing the goodput objective: fleet size, MTBF,
  // recovery cost, restart scope, run length, seed. The checkpoint
  // interval and write cost are overridden per candidate (solver-chosen
  // interval; write cost from the strategy's checkpoint shard), and
  // dp_replicas is set to the candidate's dp. The default 1024-GPU fleet
  // mirrors §7.1's large-cluster emulation.
  ResilienceOptions resilience;
  // Checkpoint-store bandwidth/barrier pricing the per-strategy write.
  CheckpointCostOptions checkpoint_cost;
  // Refinement effort of the per-candidate interval solver.
  CheckpointIntervalOptions interval_solver;
};

struct PlannerResult {
  std::optional<IterationResult> best;      // fastest feasible, if any
  std::vector<IterationResult> evaluated;   // every combination tried
  int simulated = 0;                        // full simulations run
  int pruned = 0;                           // skipped via the lower bound
  int surrogate_priced = 0;                 // phase-1 analytic prices (two_phase)
  int cache_hits = 0;                       // of those, served from the cache
};

// Searches the grid for `method` on SingleTierTopology(cluster) with
// exact cover (see SearchBestFleetStrategy). Timelines are kept only on
// the winner, and only when options.iteration.keep_timeline is set (the
// winner is then re-simulated once to record it).
PlannerResult SearchBestStrategy(Method method, const model::TransformerConfig& config,
                                 const hw::ClusterSpec& cluster, int global_batch,
                                 const PlannerOptions& options = {});

// ---- Heterogeneous-fleet search (core/fleet) ------------------------------

// Outcome of SearchBestFleetStrategy. `evaluated` counts the placed grid
// after layout validation; placements rejected by
// ParallelLayout::Validate never enter the grid and are tallied in
// `invalid_placements`.
struct FleetPlannerResult {
  std::optional<PlacedIterationResult> best;  // best feasible, if any
  // Phase-1 surrogate prices in grid order (empty unless two_phase).
  std::vector<PlacedSurrogateResult> priced;
  int evaluated = 0;
  int invalid_placements = 0;
  int simulated = 0;
  int surrogate_priced = 0;
  int cache_hits = 0;
};

// Grid search over (strategy shape × dp × stage→tier placement) on a
// tiered fleet, ranked by `options.objective`. By default the layout need
// not cover the whole fleet: dp runs over powers of two >= min_dp while
// the layout still fits, and every placement from EnumeratePlacements
// that validates becomes a candidate axis. With options.two_phase the
// grid is surrogate-priced in parallel (SurrogatePricePlaced;
// thread-count-invariant winner, ranked by (score, grid order)) and the
// DES runs only on the surrogate top-k. This default is clean-run only:
// kGoodput, a fault plan, noise or straggler rebalancing CHECK-fails.
//
// `exact_cover` runs SearchBestStrategy's search instead: the topology
// must have one tier (else CheckError), dp is the one value whose layout
// uses every GPU, every stage sits on tier 0, kDollarCost ranks by
// iteration time, options.prune may skip candidates by
// SurrogateLowerBound, and goodput and fault plans are admitted.
FleetPlannerResult SearchBestFleetStrategy(Method method,
                                           const model::TransformerConfig& config,
                                           const hw::ClusterTopology& topology,
                                           int global_batch,
                                           const PlannerOptions& options = {},
                                           bool exact_cover = false);

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_PLANNER_H_
