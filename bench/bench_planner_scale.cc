// Surrogate planner scaling (core/surrogate + the two-phase driver in
// core/planner): how faithfully the analytic surrogate ranks the
// strategy grid against the full discrete-event search, and how many
// candidates per second the surrogate sweep prices.
//
// planner_scale.csv holds only the deterministic fidelity numbers —
// per method × objective: top-1 agreement, top-5 recall, Spearman rank
// correlation, worst relative score error, and whether the two-phase
// search lands on the exhaustive winner. Throughput (candidates/sec,
// cache-hit speedup) is machine-dependent and goes to stdout only, so
// `ctest -L artifacts` can diff the CSV byte for byte.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "model/transformer.h"

namespace mepipe {
namespace {

using core::Method;
using core::PlannerObjective;
using core::PlannerOptions;
using core::PlannerResult;
using core::Strategy;

// The fidelity grid: small enough to price every candidate with the
// exact engine, wide enough that ranking errors would show.
PlannerOptions FidelityOptions(PlannerObjective objective) {
  PlannerOptions options;
  options.pp_candidates = {2, 4, 8};
  options.slice_candidates = {1, 2, 4, 8};
  options.vp_candidates = {1, 2};
  options.objective = objective;
  options.resilience.seed = 7;
  // Trimmed interval-solver effort: the goodput objective solves once
  // per feasible candidate. Deterministic, just cheaper.
  options.interval_solver = {0, 0, /*coarse_points=*/9, /*golden_iterations=*/8};
  return options;
}

// The score each objective ranks by, on the exact side.
double DesScore(const core::IterationResult& result, PlannerObjective objective) {
  return objective == PlannerObjective::kGoodput ? result.goodput.effective_iteration_time
                                                 : result.iteration_time;
}

// ... and on the surrogate side (the planner's phase-1 ranking rule).
double SurrogateScore(const core::SurrogateResult& result, const PlannerOptions& options) {
  if (options.objective != PlannerObjective::kGoodput) {
    return result.iteration_time;
  }
  core::ResilienceOptions res = options.resilience;
  res.dp_replicas = result.strategy.dp;
  return core::ClosedFormGoodput(result.iteration_time, result.checkpoint_shard, res,
                                 options.checkpoint_cost)
      .effective_iteration_time;
}

// Indices of the k best scores, ascending.
std::vector<std::size_t> TopK(const std::vector<double>& scores,
                              const std::vector<std::size_t>& candidates, std::size_t k) {
  std::vector<std::size_t> order = candidates;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] != scores[b] ? scores[a] < scores[b] : a < b;
  });
  order.resize(std::min(k, order.size()));
  return order;
}

// Spearman rank correlation between two scores over the same index set.
double SpearmanCorrelation(const std::vector<double>& a, const std::vector<double>& b,
                           const std::vector<std::size_t>& indices) {
  const std::size_t n = indices.size();
  if (n < 2) {
    return 1.0;
  }
  const auto ranks = [&](const std::vector<double>& scores) {
    std::vector<std::size_t> order = indices;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return scores[x] != scores[y] ? scores[x] < scores[y] : x < y;
    });
    std::vector<double> rank(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const auto it = std::find(indices.begin(), indices.end(), order[pos]);
      rank[static_cast<std::size_t>(it - indices.begin())] = static_cast<double>(pos);
    }
    return rank;
  };
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  double d2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = ra[i] - rb[i];
    d2 += d * d;
  }
  const double nn = static_cast<double>(n);
  return 1.0 - 6.0 * d2 / (nn * (nn * nn - 1.0));
}

void EmitPlannerScale() {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  const int gbs = 64;
  const std::vector<Method> methods = {Method::kDapple, Method::kVpp, Method::kZb1p,
                                       Method::kSvpp};

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"method", "objective", "candidates", "feasible", "top1_agree",
                  "top5_recall", "rank_corr", "max_rel_err_pct", "twophase_match",
                  "sims_exhaustive", "sims_twophase"});
  int fidelity_misses = 0;
  for (PlannerObjective objective :
       {PlannerObjective::kIterationTime, PlannerObjective::kGoodput}) {
    for (Method method : methods) {
      const PlannerOptions options = FidelityOptions(objective);
      const PlannerResult exact =
          core::SearchBestStrategy(method, config, cluster, gbs, options);

      // Surrogate-price the identical candidate list (grid order).
      std::vector<double> des_score(exact.evaluated.size());
      std::vector<double> sur_score(exact.evaluated.size());
      std::vector<std::size_t> common;  // feasible on both sides
      core::SurrogateOptions surrogate;
      surrogate.iteration = options.iteration;
      surrogate.iteration.keep_timeline = false;
      double max_rel_err = 0;
      for (std::size_t i = 0; i < exact.evaluated.size(); ++i) {
        const core::IterationResult& des = exact.evaluated[i];
        if (!des.feasible) {
          continue;
        }
        const core::SurrogateResult priced =
            core::SurrogatePrice(config, des.strategy, cluster, gbs, surrogate);
        if (!priced.feasible) {
          continue;
        }
        des_score[i] = DesScore(des, objective);
        sur_score[i] = SurrogateScore(priced, options);
        common.push_back(i);
        max_rel_err = std::max(
            max_rel_err, std::abs(sur_score[i] - des_score[i]) / des_score[i]);
      }

      const std::vector<std::size_t> des_top = TopK(des_score, common, 5);
      const std::vector<std::size_t> sur_top = TopK(sur_score, common, 5);
      const bool top1 = !des_top.empty() && !sur_top.empty() && des_top[0] == sur_top[0];
      std::size_t recalled = 0;
      for (const std::size_t i : des_top) {
        recalled += std::count(sur_top.begin(), sur_top.end(), i) > 0 ? 1u : 0u;
      }
      const double recall =
          des_top.empty() ? 1.0
                          : static_cast<double>(recalled) / static_cast<double>(des_top.size());
      const double corr = SpearmanCorrelation(des_score, sur_score, common);

      PlannerOptions two_phase_options = FidelityOptions(objective);
      two_phase_options.two_phase = true;
      two_phase_options.surrogate_top_k = 5;
      two_phase_options.threads = 2;
      const PlannerResult two_phase =
          core::SearchBestStrategy(method, config, cluster, gbs, two_phase_options);
      const bool match =
          exact.best.has_value() == two_phase.best.has_value() &&
          (!exact.best ||
           exact.best->strategy.ToString() == two_phase.best->strategy.ToString());

      if (!top1 || recall < 0.95 || !match) {
        ++fidelity_misses;
      }
      rows.push_back({std::string(ToString(method)),
                      objective == PlannerObjective::kGoodput ? "goodput" : "iter_time",
                      StrFormat("%zu", exact.evaluated.size()),
                      StrFormat("%zu", common.size()), top1 ? "yes" : "no",
                      StrFormat("%.2f", recall), StrFormat("%.3f", corr),
                      StrFormat("%.2f", max_rel_err * 100.0), match ? "yes" : "no",
                      StrFormat("%d", exact.simulated),
                      StrFormat("%d", two_phase.simulated)});
    }
  }
  bench::EmitTable("Surrogate vs DES ranking fidelity (Llama-13B, RTX 4090, GBS 64)",
                   "planner_scale", rows);
  std::printf("fidelity misses (top1/recall/two-phase): %d\n", fidelity_misses);

  // ---- throughput: machine-dependent, stdout only -------------------------
  // A wide grid across methods, model sizes, and batch sizes; every
  // structurally enumerable candidate is priced by the surrogate.
  core::SurrogateCache cache;
  PlannerOptions sweep;
  sweep.min_dp = 2;
  sweep.pp_candidates = {2, 4, 5, 8, 10, 16, 20, 32};
  sweep.slice_candidates = {1, 2, 4, 8, 16};
  sweep.vp_candidates = {1, 2, 4, 5, 8};
  sweep.tp_candidates = {1, 2, 4, 8};
  sweep.two_phase = true;
  sweep.surrogate_top_k = 1;  // throughput: phase 1 is the workload
  sweep.threads = 0;          // hardware concurrency
  sweep.cache = &cache;
  const std::vector<Method> all_methods = {
      Method::kGPipe, Method::kDapple, Method::kVpp,  Method::kHanayo, Method::kTeraPipe,
      Method::kZb1p,  Method::kZbv,    Method::kSvpp, Method::kZbvCapped};
  const auto run_sweep = [&]() {
    long candidates = 0;
    long hits = 0;
    for (const char* size : {"7B", "13B", "34B"}) {
      const auto swept_config = model::LlamaBySize(size);
      for (int batch : {16, 32, 64, 128}) {
        for (Method method : all_methods) {
          const PlannerResult result =
              core::SearchBestStrategy(method, swept_config, cluster, batch, sweep);
          candidates += result.surrogate_priced;
          hits += result.cache_hits;
        }
      }
    }
    return std::pair<long, long>{candidates, hits};
  };

  const auto cold_start = std::chrono::steady_clock::now();
  const auto [cold_candidates, cold_hits] = run_sweep();
  const double cold_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - cold_start).count();
  const auto warm_start = std::chrono::steady_clock::now();
  const auto [warm_candidates, warm_hits] = run_sweep();
  const double warm_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - warm_start).count();
  std::printf(
      "\nsurrogate sweep: %ld candidates in %.2fs (%.0f candidates/sec, %ld cache hits)\n",
      cold_candidates, cold_s, cold_candidates / cold_s, cold_hits);
  std::printf(
      "cached re-sweep: %ld candidates in %.2fs (%.0f candidates/sec, %ld/%ld served)\n",
      warm_candidates, warm_s, warm_candidates / warm_s, warm_hits, warm_candidates);
}

void BM_SurrogatePriceCandidate(benchmark::State& state) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 8;
  strategy.dp = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SurrogatePrice(config, strategy, cluster, 64).iteration_time);
  }
}
BENCHMARK(BM_SurrogatePriceCandidate);

void BM_DesPriceCandidate(benchmark::State& state) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 8;
  strategy.dp = 8;
  core::IterationOptions options;
  options.keep_timeline = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SimulateIteration(config, strategy, cluster, 64, options).iteration_time);
  }
}
BENCHMARK(BM_DesPriceCandidate);

void BM_TwoPhaseSearch(benchmark::State& state) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options = FidelityOptions(PlannerObjective::kIterationTime);
  options.two_phase = state.range(0) != 0;
  options.surrogate_top_k = 5;
  options.threads = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SearchBestStrategy(Method::kSvpp, config, cluster, 64, options).simulated);
  }
}
BENCHMARK(BM_TwoPhaseSearch)->Arg(0)->Arg(1);

}  // namespace
}  // namespace mepipe

MEPIPE_BENCH_MAIN(mepipe::EmitPlannerScale)
