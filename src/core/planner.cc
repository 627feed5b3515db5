#include "core/planner.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/check.h"
#include "core/deployment.h"

namespace mepipe::core {
namespace {

std::vector<int> VpCandidatesFor(Method method, const PlannerOptions& options) {
  switch (method) {
    case Method::kVpp: {
      std::vector<int> vps;
      for (int vp : options.vp_candidates) {
        if (vp >= 2) {
          vps.push_back(vp);
        }
      }
      if (vps.empty()) {
        vps.push_back(2);
      }
      return vps;
    }
    case Method::kZbv:
    case Method::kZbvCapped:
    case Method::kHanayo:
      return {2};
    case Method::kSynth:
      // The synthesizer is budget-general across v: sweep the same
      // virtual-chunk candidates as SVPP (v=1 recovers the 1F1B block,
      // v=2 the V-shape family).
      return options.vp_candidates;
    case Method::kSvpp:
      return options.vp_candidates;
    default:
      return {1};
  }
}

// Where a search prices its grid: a topology, and for a homogeneous
// search the ClusterSpec it came from. Both run the placed entry points;
// the ClusterSpec fixes dp to the exact cover, supplies the pruning
// bound, and carries no rental rate.
struct Target {
  hw::ClusterTopology topology;
  const hw::ClusterSpec* cluster = nullptr;
};

// The candidate grid for `method`, in the canonical enumeration order
// tp → pp → slice → vp → recompute → dp → placement. This order is the
// search's tie-break: every driver (serial exhaustive, pruned, two-phase
// parallel) ranks equal scores by position in this list, which is what
// makes the parallel winner bit-identical to the serial one. On a
// ClusterSpec dp is the one value that covers the cluster and every
// stage sits on its one tier. On a topology the layout need not cover
// the fleet: dp runs over powers of two >= min_dp while the rank count
// still fits somewhere, and every placement from EnumeratePlacements that
// validates is a candidate (the rest are tallied in *invalid_placements).
std::vector<PlacedStrategy> EnumerateGrid(Method method, const Target& target,
                                          const PlannerOptions& options,
                                          int* invalid_placements) {
  std::vector<PlacedStrategy> grid;
  const int world = target.topology.world_size();
  for (int tp : options.tp_candidates) {
    for (int pp : options.pp_candidates) {
      const std::vector<hw::StagePlacement> placements =
          target.cluster != nullptr ? std::vector<hw::StagePlacement>{}
                                    : EnumeratePlacements(target.topology, pp);
      for (int slice : options.slice_candidates) {
        for (int vp : VpCandidatesFor(method, options)) {
          const std::vector<bool> recompute_choices =
              (options.allow_recompute && !MethodSplitsBackward(method))
                  ? std::vector<bool>{false, true}
                  : std::vector<bool>{false};
          for (bool recompute : recompute_choices) {
            Strategy strategy;
            strategy.method = method;
            strategy.pp = pp;
            strategy.tp = tp;
            strategy.vp = vp;
            strategy.recompute = recompute;
            if (MethodUsesSlices(method)) {
              strategy.cp = 1;
              strategy.spp = slice;
            } else {
              strategy.cp = slice;
              strategy.spp = 1;
            }
            const int denom = pp * strategy.cp * tp;
            if (denom == 0) {
              continue;
            }
            if (target.cluster != nullptr) {
              strategy.dp = world / denom;
              // Structured admissibility (kWorldMismatch subsumes the old
              // world % denom test: an integer-truncated dp cannot cover
              // the world exactly).
              if (strategy.dp >= options.min_dp &&
                  strategy.layout().Validate(target.topology).empty()) {
                grid.push_back({strategy, hw::StagePlacement::Uniform(pp, 0)});
              }
              continue;
            }
            for (int dp = 1; dp <= world / denom; dp *= 2) {
              if (dp < options.min_dp) {
                continue;
              }
              strategy.dp = dp;
              for (const hw::StagePlacement& placement : placements) {
                if (!strategy.layout().Validate(target.topology, placement).empty()) {
                  ++*invalid_placements;
                  continue;
                }
                grid.push_back({strategy, placement});
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

// Prices a feasible result under the goodput objective's failure model:
// per-strategy checkpoint write cost from its worst shard, Young/Daly +
// refinement for the interval (memoized through the SurrogateCache when
// one is attached), then a simulated training run for the delivered
// goodput. No-op on infeasible results. Under a fault plan
// `result.iteration_time` is the faulted (possibly mitigated) time, so
// the joint mode compounds failure overhead on top of straggler
// dilation — the PlannerOptions::fault_plan contract.
void PriceGoodput(IterationResult& result, const PlannerOptions& options) {
  if (!result.feasible || options.objective != PlannerObjective::kGoodput) {
    return;
  }
  ResilienceOptions res = options.resilience;
  res.reliability.checkpoint_write_cost =
      CheckpointWriteCost(result.checkpoint_shard, options.checkpoint_cost);
  res.dp_replicas = result.strategy.dp;
  const CheckpointIntervalSolution sol =
      options.cache != nullptr
          ? options.cache->IntervalSolve(result.iteration_time, res, options.interval_solver)
          : OptimalCheckpointInterval(result.iteration_time, res, options.interval_solver);
  result.goodput.priced = true;
  result.goodput.checkpoint_interval = sol.refined;
  result.goodput.checkpoint_write_cost = res.reliability.checkpoint_write_cost;
  result.goodput.goodput = sol.goodput;
  result.goodput.effective_iteration_time =
      result.iteration_time / std::max(sol.goodput, 1e-12);
}

// The quantity the search minimizes for a feasible DES-priced candidate.
double Score(const PlacedIterationResult& priced, PlannerObjective objective) {
  if (objective == PlannerObjective::kGoodput) {
    return priced.result.goodput.effective_iteration_time;
  }
  return objective == PlannerObjective::kDollarCost ? priced.dollars.usd_per_iteration
                                                    : priced.result.iteration_time;
}

// The surrogate analogue of Score for phase-1 ranking: closed-form
// goodput pricing instead of the Monte-Carlo-refined solve.
double SurrogateScore(const PlacedSurrogateResult& priced, PlannerObjective objective,
                      const PlannerOptions& options) {
  if (objective == PlannerObjective::kGoodput) {
    ResilienceOptions res = options.resilience;
    res.dp_replicas = priced.result.strategy.dp;
    return ClosedFormGoodput(priced.result.iteration_time, priced.result.checkpoint_shard, res,
                             options.checkpoint_cost)
        .effective_iteration_time;
  }
  return objective == PlannerObjective::kDollarCost ? priced.dollars.usd_per_iteration
                                                    : priced.result.iteration_time;
}

// Phase 1 of the two-phase driver: surrogate-price every grid candidate
// on `threads` workers (atomic work index; results land in their
// candidate's slot, so the outcome is thread-count-independent).
std::vector<PlacedSurrogateResult> SurrogateSweep(const std::vector<PlacedStrategy>& grid,
                                                  const model::TransformerConfig& config,
                                                  const hw::ClusterTopology& topology,
                                                  int global_batch,
                                                  const IterationOptions& iteration,
                                                  SurrogateCache* cache, int threads) {
  std::vector<PlacedSurrogateResult> priced(grid.size());
  if (grid.empty()) {
    return priced;
  }
  SurrogateOptions surrogate;
  surrogate.iteration = iteration;
  surrogate.iteration.keep_timeline = false;
  surrogate.iteration.keep_schedule = false;
  surrogate.cache = cache;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, static_cast<int>(grid.size()));

  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (std::size_t i = next.fetch_add(1); i < grid.size(); i = next.fetch_add(1)) {
      try {
        priced[i] = SurrogatePricePlaced(config, grid[i], topology, global_batch, surrogate);
      } catch (const CheckError& err) {
        priced[i].placed = grid[i];
        priced[i].result.strategy = grid[i].strategy;
        priced[i].result.feasible = false;
        priced[i].result.note = err.what();
      }
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  return priced;
}

// Everything one search produced; the public result types are views of it.
struct Search {
  std::optional<PlacedIterationResult> best;
  std::vector<PlacedSurrogateResult> priced;  // phase 1, grid order
  std::vector<IterationResult> evaluated;     // one per grid candidate
  int simulated = 0;
  int pruned = 0;
  int surrogate_priced = 0;
  int cache_hits = 0;
  int invalid_placements = 0;
};

// The search both public entry points run: grid enumeration, the
// optional surrogate sweep and top-k selection, the exact phase in grid
// order, and the winner's re-simulation with its timeline.
Search RunSearch(Method method, const model::TransformerConfig& config, const Target& target,
                 int global_batch, const PlannerOptions& options) {
  Search out;
  IterationOptions eval_options = options.iteration;
  eval_options.keep_timeline = false;
  if (options.fault_plan) {
    eval_options.fault_plan = options.fault_plan;
  }
  const bool faulted = !eval_options.fault_plan.empty();
  // A ClusterSpec carries no rental rate: every candidate rents the same
  // fleet, so kDollarCost ranks by iteration time there.
  const PlannerObjective objective =
      target.cluster != nullptr && options.objective == PlannerObjective::kDollarCost
          ? PlannerObjective::kIterationTime
          : options.objective;
  // The lower bound is fault-aware (straggler windows cap each stage's
  // rate), so pruning survives a fault plan. Rebalanced search moves
  // work across stages, which no per-stage bound survives — off there.
  // The bound prices a ClusterSpec, so fleet searches never prune.
  const bool prune =
      options.prune && target.cluster != nullptr && !(faulted && options.search_rebalanced);

  const std::vector<PlacedStrategy> grid =
      EnumerateGrid(method, target, options, &out.invalid_placements);

  // ---- phase 1: surrogate sweep + top-k selection (two_phase only) ----
  // The surrogate prices clean runs only; under a fault plan the search
  // stays exhaustive (the fault-aware bound still prunes it).
  std::vector<char> selected(grid.size(), 1);
  if (options.two_phase && !faulted && !grid.empty()) {
    out.priced = SurrogateSweep(grid, config, target.topology, global_batch, eval_options,
                                options.cache, options.threads);
    out.surrogate_priced = static_cast<int>(out.priced.size());
    std::vector<std::pair<double, std::size_t>> ranked;  // (score, grid index)
    ranked.reserve(out.priced.size());
    for (std::size_t i = 0; i < out.priced.size(); ++i) {
      out.cache_hits += out.priced[i].result.cache_hit ? 1 : 0;
      if (out.priced[i].result.feasible) {
        ranked.push_back({SurrogateScore(out.priced[i], objective, options), i});
      }
    }
    std::sort(ranked.begin(), ranked.end());
    // Nothing surrogate-feasible: keep everything selected, so a
    // conservative surrogate can never hide a feasible strategy.
    if (!ranked.empty()) {
      const std::size_t top_k = std::min<std::size_t>(
          ranked.size(), static_cast<std::size_t>(std::max(1, options.surrogate_top_k)));
      selected.assign(grid.size(), 0);
      for (std::size_t r = 0; r < top_k; ++r) {
        selected[ranked[r].second] = 1;
      }
    }
  }

  // ---- phase 2 / exhaustive: exact DES (+ goodput pricing) in grid order ----
  // A CheckError from one candidate's run (a fault plan naming a stage its
  // pipeline lacks, say) marks that candidate infeasible with the error as
  // its note instead of aborting the search, as in the surrogate sweep.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PlacedStrategy& candidate = grid[i];
    if (!selected[i]) {
      IterationResult skipped;
      skipped.strategy = candidate.strategy;
      skipped.note = out.priced[i].result.feasible
                         ? "skipped: outside surrogate top-k"
                         : "surrogate: " + out.priced[i].result.note;
      out.evaluated.push_back(std::move(skipped));
      continue;
    }
    if (prune && out.best) {
      // Sound under both objectives: the goodput score
      // iteration_time / goodput never falls below the iteration time
      // itself (goodput <= 1), so a bound above the incumbent's score
      // bounds the candidate out either way.
      const auto bound = SurrogateLowerBound(config, candidate.strategy, *target.cluster,
                                             global_batch, eval_options);
      if (bound && *bound >= Score(*out.best, objective)) {
        ++out.pruned;
        IterationResult skipped;
        skipped.strategy = candidate.strategy;
        skipped.note = "pruned: lower bound above incumbent";
        out.evaluated.push_back(std::move(skipped));
        continue;
      }
    }
    const auto evaluate = [&](const IterationOptions& iteration) {
      PlacedIterationResult result;
      try {
        result =
            SimulatePlacedIteration(config, candidate, target.topology, global_batch, iteration);
      } catch (const CheckError& err) {
        result.placed = candidate;
        result.result.strategy = candidate.strategy;
        result.result.note = err.what();
      }
      ++out.simulated;
      PriceGoodput(result.result, options);
      return result;
    };
    PlacedIterationResult result = evaluate(eval_options);
    if (options.search_rebalanced && faulted && !eval_options.rebalance_stragglers) {
      IterationOptions mitigated_options = eval_options;
      mitigated_options.rebalance_stragglers = true;
      PlacedIterationResult mitigated = evaluate(mitigated_options);
      if (mitigated.result.feasible &&
          (!result.result.feasible || Score(mitigated, objective) < Score(result, objective))) {
        result = std::move(mitigated);
      }
    }
    if (result.result.feasible &&
        (!out.best || Score(result, objective) < Score(*out.best, objective))) {
      out.best = result;
    }
    out.evaluated.push_back(std::move(result.result));
  }

  // Re-simulate the winner with its timeline for downstream rendering
  // (and re-price it: the re-simulation resets the goodput fields).
  if (out.best) {
    IterationOptions final_options = eval_options;
    final_options.keep_timeline = true;
    final_options.rebalance_stragglers =
        eval_options.rebalance_stragglers || out.best->result.mitigation.rebalanced;
    *out.best = SimulatePlacedIteration(config, out.best->placed, target.topology,
                                        global_batch, final_options);
    MEPIPE_CHECK(out.best->result.feasible);
    PriceGoodput(out.best->result, options);
  }
  return out;
}

}  // namespace

PlannerResult SearchBestStrategy(Method method, const model::TransformerConfig& config,
                                 const hw::ClusterSpec& cluster, int global_batch,
                                 const PlannerOptions& options) {
  Search search = RunSearch(method, config, {hw::SingleTierTopology(cluster), &cluster},
                            global_batch, options);
  PlannerResult out;
  if (search.best) {
    out.best = std::move(search.best->result);
  }
  out.evaluated = std::move(search.evaluated);
  out.simulated = search.simulated;
  out.pruned = search.pruned;
  out.surrogate_priced = search.surrogate_priced;
  out.cache_hits = search.cache_hits;
  return out;
}

FleetPlannerResult SearchBestFleetStrategy(Method method,
                                           const model::TransformerConfig& config,
                                           const hw::ClusterTopology& topology,
                                           int global_batch, const PlannerOptions& options) {
  MEPIPE_CHECK(options.objective != PlannerObjective::kGoodput)
      << "the goodput objective is not supported on the fleet path";
  MEPIPE_CHECK(options.fault_plan.empty() && options.iteration.fault_plan.empty() &&
               options.iteration.noise_sigma <= 0 && !options.iteration.rebalance_stragglers)
      << "the fleet search prices clean runs only";
  Search search = RunSearch(method, config, {topology}, global_batch, options);
  FleetPlannerResult out;
  out.best = std::move(search.best);
  out.priced = std::move(search.priced);
  out.evaluated = static_cast<int>(search.evaluated.size());
  out.invalid_placements = search.invalid_placements;
  out.simulated = search.simulated;
  out.surrogate_priced = search.surrogate_priced;
  out.cache_hits = search.cache_hits;
  return out;
}

std::vector<PlannerResult> SearchMethods(const std::vector<Method>& methods,
                                         const model::TransformerConfig& config,
                                         const hw::ClusterSpec& cluster, int global_batch,
                                         const PlannerOptions& options) {
  std::vector<PlannerResult> results;
  results.reserve(methods.size());
  for (Method method : methods) {
    results.push_back(SearchBestStrategy(method, config, cluster, global_batch, options));
  }
  return results;
}

}  // namespace mepipe::core
