// The benchmark's workloads and the traced layer replay they feed.
//
// A workload turns a seed into a fixed list of calls — planner queries,
// or cluster-service bursts (submit a burst of jobs, then drain) — and
// replays that list in a closed loop: one client, the next call only
// after the previous one returned. Every replay has two passes over the
// same list: a cold pass against empty caches and a warm pass that keeps
// them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/planner.h"
#include "spans.h"

namespace perfbench {

// What one replay of a workload's list measured.
struct Replay {
  double wall_s = 0;              // both passes
  double cold_s = 0;              // the cold pass alone
  long cold_candidates = 0;       // candidates priced or simulated in the cold pass
  std::vector<double> cold_ms;    // per call, cold pass
  std::vector<double> warm_ms;    // per call, warm pass
  long calls = 0;
  long failed = 0;                // calls that threw CheckError
  std::uint64_t digest = 0;       // output digest of the replay
};

// Named per-layer values: metric name → (value, unit).
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

// The traced run's layer replay: records the query spans the workloads
// open and, after each query returns, re-runs that query's candidates
// through the public layer entry points as child spans (layers.cc).
class Tracer {
 public:
  explicit Tracer(bool smoke);

  SpanRecorder& recorder() { return recorder_; }

  // A homogeneous planner query, whose span `span` has just closed,
  // returned `result`. Counts the result; with `replay_layers` also
  // replays a sample of its candidates through the layers.
  void ReplayQuery(int span, const mepipe::model::TransformerConfig& config,
                   const mepipe::hw::ClusterSpec& cluster, int global_batch,
                   const mepipe::core::PlannerOptions& options,
                   const mepipe::core::PlannerResult& result, bool replay_layers);
  // Same for a fleet planner query.
  void ReplayFleetQuery(int span, const mepipe::model::TransformerConfig& config,
                        const mepipe::hw::ClusterTopology& topology, int global_batch,
                        const mepipe::core::PlannerOptions& options,
                        const mepipe::core::FleetPlannerResult& result, bool replay_layers);
  // After a service call (span `span`, closed): replays every job plan
  // the call produced that no earlier call did.
  void ObserveService(int span, mepipe::core::ClusterService& service,
                      const mepipe::core::ClusterServiceOptions& options);
  // End-of-replay state of the planner cache / the service.
  void RecordCache(const mepipe::core::SurrogateCache::Stats& stats);
  void RecordService(mepipe::core::ClusterService& service);
  // Drain time and Submit / OnNodeFailure latencies of a service replay.
  void RecordServiceCalls(double drain_s, const std::vector<double>& call_ms);

  // Every per-layer metric. `untraced_wall_s` / `traced_wall_s` give the
  // tracing overhead.
  MetricMap Metrics(double untraced_wall_s, double traced_wall_s) const;
  // Wall time of the calls whose layers were replayed, and the part of
  // it the replayed layers account for (the rest is the calls' self time).
  double replayed_call_s() const { return replayed_query_s_; }
  double covered_s() const { return covered_s_; }

 private:
  struct Candidate;
  // Replays one candidate; returns the seconds its layers took in the
  // roles the planner ran it in (phase-1 price, DES, winner re-sim).
  struct Cost {
    double price_s = 0;     // uncached surrogate price
    double simulate_s = 0;  // DES without timeline
    double resim_s = 0;     // winner re-sim with timeline
  };
  Cost ReplayCandidate(int parent, int query, const Candidate& candidate);
  // Replays a call's sampled phase-1 prices and DES runs and its winner
  // as children of `span`. Returns the seconds they account for in the
  // call: each uncached price and each DES run at the sampled mean cost
  // of its kind, plus the winner re-sim.
  double ReplayCall(int span, const std::vector<Candidate>& prices,
                    const std::vector<Candidate>& runs, const Candidate* winner,
                    long uncached_prices, long des_runs);
  double Duration(int span) const {
    const Span& s = recorder_.spans()[static_cast<std::size_t>(span)];
    return s.end - s.start;
  }

  // Candidates replayed per query: phase-1 prices and DES runs.
  std::size_t price_cap_;
  std::size_t sim_cap_;
  SpanRecorder recorder_;
  // Counters read from the result structs (core/planner, core/cluster).
  long queries_ = 0;
  long winners_ = 0;
  long surrogate_priced_ = 0;
  long simulated_ = 0;
  long cache_hits_ = 0;
  long fallback_queries_ = 0;
  long invalid_placements_ = 0;
  long interval_lookups_ = 0;
  long interval_hits_ = 0;
  long service_plan_calls_ = 0;
  long service_memo_hits_ = 0;
  long service_cache_hits_ = 0;
  long service_cache_lookups_ = 0;
  long service_events_ = 0;
  double service_drain_s_ = 0;
  std::vector<double> service_call_ms_;  // each Submit / OnNodeFailure
  // Planner queries whose layers were replayed: their measured wall time
  // and the time their replayed layers account for.
  double replayed_query_s_ = 0;
  double covered_s_ = 0;
  double resim_s_ = 0;
  std::vector<double> synth_build_s_;
  double fill_gemms_s_ = 0;  // engine runs under WgradMode::kFillGemms
  long fill_gemms_ops_ = 0;
  std::set<std::string> seen_segments_;  // service job segments already observed
  std::set<std::string> seen_plans_;     // service plans already replayed
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One line describing the generated inputs.
  virtual std::string Describe() const = 0;
  // Untimed calls on shapes outside the list (part of set-up).
  virtual void WarmUp() = 0;
  // One replay of the list: cold pass, then warm pass. With a tracer the
  // query spans are recorded and each query's layers are replayed.
  virtual Replay Run(Tracer* tracer) = 0;
  // Output checks outside the timed region, run after Run(). Appends one
  // message per failed check.
  virtual void Check(std::vector<std::string>* errors) = 0;
  // How many checks Check() makes.
  virtual int CheckCount() const = 0;
};

// Generates `name`'s inputs from `seed` (smoke: a few calls only).
// Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool smoke);

// 64-bit FNV-1a, for output digests.
std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
