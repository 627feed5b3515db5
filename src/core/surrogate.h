// The surrogate planner subsystem: analytic candidate pricing for the
// strategy grid search (ROADMAP item 1).
//
// The planner's bottleneck is that every (PP, DP, CP/SPP, VP, recompute)
// candidate is priced with a full discrete-event simulation, and the
// goodput objective adds a Monte-Carlo checkpoint-interval solve on top.
// The surrogate replaces the first phase of that with a tabular
// critical-path pass over the candidate's schedule — the same list
// semantics sched::BuildScheduleTable uses, but charged with the
// candidate's real CostModel — plus closed-form Young/Daly goodput
// pricing, so 10⁴–10⁵ candidates can be ranked in seconds and the exact
// DES runs only on the top-k survivors.
//
// Pricing contract (also in DESIGN.md):
//  - Exact: per-stage program order, same-stage waits, deferred
//    weight-gradient fills (all three WgradModes), activation-budget
//    drains, running activation/act-grad memory, the monolithic DP sync,
//    and the overlapped per-bucket DP stream when the fabric is not
//    shared. For transfer-free cost models the surrogate's makespan,
//    peak memory, and bubble fraction equal the engine's bit for bit.
//  - Approximate: cross-stage transfers are charged point-to-point
//    (arrival = producer done + transfer time) without per-directed-link
//    serialization, and the overlapped DP stream ignores fabric
//    contention (dp_link_shared). Both only shift readiness, so the
//    error is bounded by the schedule's transfer contention.
//  - Not modeled: fault plans, noise, straggler rebalancing. The
//    surrogate always prices the clean run; fault-aware search uses
//    SurrogateLowerBound for pruning and the DES for measurement.
#ifndef MEPIPE_CORE_SURROGATE_H_
#define MEPIPE_CORE_SURROGATE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/iteration.h"
#include "core/resilience.h"

namespace mepipe::core {

// ---- Tabular schedule pricing ---------------------------------------------

struct TableOptions {
  sim::WgradMode wgrad_mode = sim::WgradMode::kFillGemms;
  // Per-stage activation budget (empty = unbudgeted), same semantics as
  // sim::EngineOptions::activation_budget.
  std::vector<Bytes> activation_budget;
  // Schedule the per-bucket DP sync stream against the finished table
  // (fills the dp_* fields below); without it the caller prices the
  // monolithic sync itself.
  bool dp_overlap = false;
};

// What the critical-path pass measures. Mirrors sim::SimResult's summary
// fields, minus the timeline.
struct TablePrice {
  Seconds makespan = 0;
  double bubble_ratio = 0;        // mean of per-stage 1 - busy/makespan
  Bytes peak_activation = 0;      // max over stages
  int budget_violations = 0;
  std::vector<Seconds> stage_busy;
  std::vector<Bytes> stage_peak_activation;
  // Overlapped-DP accounting (zero unless TableOptions::dp_overlap).
  Seconds dp_serialized = 0;
  Seconds dp_hidden = 0;
  Seconds dp_exposed = 0;
};

// Prices `schedule` against `costs` with the engine's list semantics but
// dense arenas, no timeline, and the approximations documented above.
// The schedule is assumed valid (generators validate; the DES re-checks
// survivors).
TablePrice PriceScheduleTable(const sched::Schedule& schedule, const sim::CostModel& costs,
                              const TableOptions& options = {});

// ---- Cost-model fingerprint + pricing cache -------------------------------

// Deterministic 64-bit digest of everything that determines a surrogate
// price besides the strategy shape: the model architecture, the cluster
// (GPU + links), TrainingCostOptions (efficiency curve probed
// behaviorally), and the pricing-relevant IterationOptions (wgrad mode,
// SVPP variant knobs, optimizer step, DP overlap). Fault plans and noise
// are deliberately excluded — the surrogate prices the clean run.
std::uint64_t CostModelFingerprint(const model::TransformerConfig& config,
                                   const hw::ClusterSpec& cluster,
                                   const IterationOptions& options);

// Fleet analogue: digests every tier (GPU, shape, links, rental rate)
// and the inter-tier link matrix (bandwidth, latency, egress price) on
// top of the model/options digest, so heterogeneous-fleet prices never
// collide with homogeneous ones or with differently-priced fleets.
std::uint64_t TopologyFingerprint(const model::TransformerConfig& config,
                                  const hw::ClusterTopology& topology,
                                  const IterationOptions& options);

// Cache key: (method, shape, batch, cost-model fingerprint, placement).
// ClusterSpec requests (SurrogatePrice) key on CostModelFingerprint with
// `placement` 0; placed requests (SurrogatePricePlaced) on
// TopologyFingerprint with StagePlacement::Hash(). The two apply
// different layout admissibility rules, so their entries never alias,
// even on a one-tier topology.
struct SurrogateKey {
  Method method = Method::kSvpp;
  int pp = 1, dp = 1, cp = 1, tp = 1, vp = 1, spp = 1;
  bool recompute = false;
  int global_batch = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t placement = 0;

  friend bool operator==(const SurrogateKey&, const SurrogateKey&) = default;
};

struct SurrogateKeyHash {
  std::size_t operator()(const SurrogateKey& key) const;
};

// The surrogate's analogue of IterationResult — everything the search
// ranks on, nothing it renders.
struct SurrogateResult {
  Strategy strategy;
  bool feasible = false;
  std::string note;  // "ok", structural constraint, or OOM explanation

  int micros = 0;
  Seconds pipeline_time = 0;   // table makespan
  Seconds dp_sync_time = 0;    // exposed DP sync estimate
  Seconds iteration_time = 0;  // makespan + exposed sync + optimizer step
  double bubble_ratio = 0;

  Bytes static_memory = 0;
  Bytes peak_activation = 0;
  Bytes peak_memory = 0;
  Bytes checkpoint_shard = 0;

  bool cache_hit = false;  // served from a SurrogateCache
};

// Thread-safe pricing cache. Repeated shapes — planner re-runs, elastic
// re-plans, multi-job traffic — hit instead of re-pricing; a memoized
// Young/Daly + refinement interval solve serves the exact phase of the
// goodput search. All methods are safe to call concurrently.
class SurrogateCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t interval_hits = 0;
    std::int64_t interval_misses = 0;
  };

  std::optional<SurrogateResult> Lookup(const SurrogateKey& key);
  void Insert(const SurrogateKey& key, const SurrogateResult& result);

  // Memoized OptimalCheckpointInterval: identical (iteration_time, base,
  // options) tuples return the stored solution. A concurrent duplicate
  // solve is benign — the solver is deterministic, so both threads
  // insert the same value.
  CheckpointIntervalSolution IntervalSolve(Seconds iteration_time,
                                           const ResilienceOptions& base,
                                           const CheckpointIntervalOptions& options = {});

  Stats stats() const;
  std::size_t size() const;
  void Clear();

 private:
  struct IntervalKey {
    std::uint64_t time_bits = 0;   // iteration_time
    std::uint64_t write_bits = 0;  // checkpoint_write_cost
    std::uint64_t mtbf_bits = 0;
    std::uint64_t recovery_bits = 0;
    std::uint64_t target_bits = 0;
    std::int64_t iterations = 0;
    std::uint64_t seed = 0;
    int gpus = 0;
    int dp_replicas = 0;
    int scope = 0;
    std::uint64_t min_bits = 0;
    std::uint64_t max_bits = 0;
    int coarse_points = 0;
    int golden_iterations = 0;

    friend bool operator==(const IntervalKey&, const IntervalKey&) = default;
  };
  struct IntervalKeyHash {
    std::size_t operator()(const IntervalKey& key) const;
  };

  mutable std::mutex mu_;
  std::unordered_map<SurrogateKey, SurrogateResult, SurrogateKeyHash> entries_;
  std::unordered_map<IntervalKey, CheckpointIntervalSolution, IntervalKeyHash> intervals_;
  Stats stats_;
};

// ---- Candidate pricing ----------------------------------------------------

struct SurrogateOptions {
  // Same knobs SimulateIteration takes; fault plan / noise / rebalance
  // fields are ignored (the surrogate prices the clean run).
  IterationOptions iteration;
  // Optional shared cache (not owned; may be used from many threads).
  SurrogateCache* cache = nullptr;
};

// Builds the candidate (core::BuildCandidate) and prices it with the
// tabular pass. Infeasible candidates return feasible=false with the
// structural or OOM note, mirroring SimulateIteration. The single-tier
// case of SurrogatePricePlaced (defined with it in core/fleet.cc), with
// SimulateIteration's admissibility rules; cache keys carry
// CostModelFingerprint and placement 0.
SurrogateResult SurrogatePrice(const model::TransformerConfig& config,
                               const Strategy& strategy, const hw::ClusterSpec& cluster,
                               int global_batch, const SurrogateOptions& options = {});

// ---- Closed-form goodput --------------------------------------------------

// Analytic goodput pricing: checkpoint write cost from the shard, the
// Daly second-order interval (no Monte-Carlo refinement), and the
// closed-form overhead fraction write/T + (recovery + lost)/MTBF with a
// restart-scope-aware expected lost work (interval/2 for full-pipeline
// restarts; about half an iteration for replica-local ones). Used to
// rank candidates under the goodput objective before the exact
// SimulateTrainingRun-refined solve runs on the survivors.
struct SurrogateGoodput {
  Seconds checkpoint_interval = 0;    // Daly closed form
  Seconds checkpoint_write_cost = 0;
  double goodput = 0;                 // 1 - closed-form overhead, clamped
  Seconds effective_iteration_time = 0;  // iteration_time / goodput
};

SurrogateGoodput ClosedFormGoodput(Seconds iteration_time, Bytes checkpoint_shard,
                                   const ResilienceOptions& resilience,
                                   const CheckpointCostOptions& checkpoint_cost = {});

// ---- Fault-aware pruning bound --------------------------------------------

// Lower bound on a candidate's iteration time under `options` (including
// its fault plan): the busiest stage must execute its F/B/W work back to
// back, with straggler windows capping the rate at 1/slowdown — the
// bound inverts each stage's work-capacity function over the plan's
// windows. Fail-stops and link faults only add time and are ignored, so
// the bound stays sound. Clean runs reduce to the compute-only bound
// (busiest stage + serialized DP sync + optimizer step). Returns nullopt
// when the strategy is structurally inapplicable. Not valid under
// straggler rebalancing (search_rebalanced), which moves work across
// stages.
std::optional<Seconds> SurrogateLowerBound(const model::TransformerConfig& config,
                                           const Strategy& strategy,
                                           const hw::ClusterSpec& cluster, int global_batch,
                                           const IterationOptions& options);

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_SURROGATE_H_
