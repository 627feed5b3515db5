// Multi-job cluster service (ROADMAP item 5): shared-fleet admission,
// allocation, and planning under sustained job traffic.
//
// A ClusterService owns one hw::ClusterTopology and consumes a stream of
// JobRequests (model preset, method, global batch, priority, optional
// deadline, node demand). For every admission it carves a disjoint
// whole-node sub-fleet (hw::CarveSubTopology), prices it through one
// two-phase SearchBestFleetStrategy call on the carve itself — with exact
// cover when the carve is a single tier — with one thread-safe
// SurrogateCache shared across all jobs, and runs the job to
// completion on the service's wall clock. Completions, fail-stops, and
// preemptions reclaim capacity, which the admission loop immediately
// re-offers to queued and degraded jobs; a node failure inside a running
// job's fleet triggers the core/elastic survivor idiom — shrink to the
// surviving nodes and re-plan live when the job stays above its minimum
// demand, fail and requeue otherwise, with the dead node returning to
// the free pool after `repair_time`.
//
// Job lifecycle (state machine contract, also in DESIGN.md):
//   kQueued → kAdmitted → kRunning → {kDraining, kFailed} → kReclaimed
// with one re-entry edge kReclaimed → kQueued for preempted and
// failed-but-retryable jobs. VerifyInvariants() re-checks after every
// event that allocations are pairwise disjoint, node counts are
// conserved (allocated + free + repairing == fleet), every admitted job
// holds a memory-feasible plan, and no queued job is priority-inverted
// against free capacity or any single lower-priority running job.
//
// Everything here is deterministic: traffic comes from SplitMixRng,
// planning latency is *modeled* from the planner's own work counters
// (not wall-clock), and the event log serializes byte-stably with a
// trailing checksum so golden snapshots can pin whole admission
// timelines.
#ifndef MEPIPE_CORE_CLUSTER_H_
#define MEPIPE_CORE_CLUSTER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/planner.h"
#include "hw/cluster.h"
#include "model/transformer.h"

namespace mepipe::core {

// ---- Requests and lifecycle ------------------------------------------------

// One training job offered to the shared fleet. Demand is expressed in
// whole nodes (the carve granularity); the service sizes the allocation
// between min_nodes and max_nodes depending on load.
struct JobRequest {
  std::string name;                 // for logs; defaults to "job<id>"
  model::TransformerConfig config;  // model to train
  Method method = Method::kSvpp;
  int global_batch = 16;
  // Strict ordering class: a queued job must never wait on free capacity
  // that, together with any single lower-priority running job's nodes,
  // could host it (the no-priority-inversion invariant).
  int priority = 0;
  // 0 = no deadline. Used only as the admission tie-break inside one
  // priority class (earliest deadline first).
  Seconds deadline = 0;
  Seconds arrival = 0;  // service wall-clock submit time
  int min_nodes = 1;    // below this the job fails rather than shrinks
  int max_nodes = 1;    // the service never allocates more
  // Tier the nodes must come from; -1 = any single tier, and when no
  // single tier can host min_nodes the allocation may span tiers (the
  // fleet-planner path).
  int preferred_tier = -1;
  // Total training iterations the job must complete. Progress carries
  // across shrinks, expansions, preemptions, and requeues.
  double iterations = 100;
};

enum class JobState {
  kQueued,     // waiting for capacity
  kAdmitted,   // nodes reserved, planning in flight
  kRunning,    // executing its planned schedule
  kDraining,   // completed; nodes being reclaimed
  kFailed,     // lost too many nodes (or was preempted)
  kReclaimed,  // nodes returned; terminal unless requeued
};

const char* JobStateName(JobState state);

// The disjoint sub-fleet a job holds: per-tier whole-node slices plus
// the concrete node ids backing them (ids are per-tier, dense from 0).
struct Allocation {
  std::vector<hw::TierSlice> slices;
  std::vector<std::vector<int>> node_ids;  // parallel to `slices`

  int nodes() const;
  int devices(const hw::ClusterTopology& fleet) const;
  bool empty() const { return slices.empty(); }
};

// The priced outcome of planning one job on its carved sub-fleet.
// Infeasible outcomes (no strategy fits the carve) are memoized too, so
// the admission loop and the invariant checker agree on what a carve
// can host without re-planning.
struct JobPlan {
  bool feasible = false;
  Strategy strategy;
  hw::StagePlacement placement;  // stage → carve tier (all 0 on one tier)
  bool fleet_path = false;       // true ⇔ the carve spans tiers
  Seconds iteration_time = 0;
  Bytes peak_memory = 0;
  double usd_per_iteration = 0;  // rental + egress at the carve's rates
  // The winning schedule, serialized untagged once and shared by every
  // job the plan memo serves with it (null when the planner kept none).
  // A multi-job timeline attributes spans by sched::TagJob with
  // JobRecord::job_id.
  std::shared_ptr<const std::string> schedule_text;
  // Planner work counters, feeding the deterministic latency model.
  int surrogate_priced = 0;
  int simulated = 0;
  int cache_hits = 0;
  // Modeled planning latency of the call that produced this plan.
  Seconds planning_latency = 0;
  bool from_plan_cache = false;  // served from the service-level memo
};

struct JobRecord {
  int job_id = 0;
  JobRequest request;
  JobState state = JobState::kQueued;
  Allocation alloc;
  JobPlan plan;
  Seconds admit_time = 0;        // last admission (re-entry updates it)
  Seconds segment_start = 0;     // when the current plan started running
  Seconds finish_time = 0;       // predicted completion under the plan
  double remaining_iterations = 0;
  double completed_iterations = 0;
  // Device-seconds of useful (planned) compute this job has banked —
  // the numerator of fleet-wide goodput.
  double useful_device_seconds = 0;
  int shrink_count = 0;
  int expand_count = 0;
  int preempt_count = 0;
  int failure_count = 0;
};

// ---- Event log -------------------------------------------------------------

enum class ClusterEventKind {
  kSubmit,
  kAdmit,
  kComplete,
  kNodeFail,
  kShrink,
  kExpand,
  kJobFail,
  kRequeue,
  kPreempt,
  kRepair,
  kReject,
};

const char* ClusterEventKindName(ClusterEventKind kind);

struct ClusterEvent {
  Seconds time = 0;
  ClusterEventKind kind = ClusterEventKind::kSubmit;
  int job_id = -1;  // -1 for fleet-level events (e.g. kRepair)
  std::string detail;
};

// Byte-stable rendering: header, fleet summary, one line per event, and
// a trailing checksum line over everything above it. The golden
// admission-timeline snapshot pins this format.
std::string FormatEventLog(const hw::ClusterTopology& fleet,
                           const std::vector<ClusterEvent>& events);

// Re-derives the checksum and structure of a FormatEventLog document.
// Returns true iff the log is intact; any flipped byte, dropped line, or
// reordered event fails.
bool ValidateEventLog(const std::string& text);

// ---- Service configuration -------------------------------------------------

// How the service maps demand onto the fleet.
//  - kDynamic: size each allocation between [min_nodes, max_nodes] by
//    load, preempt lower-priority work for higher, shrink on failure,
//    expand into idle capacity.
//  - kStaticEqual: the classic static scheme — each tier is pre-carved
//    into equal partitions of a quarter of its nodes (at least one); a
//    job takes exactly one partition (no sizing, no preemption, no
//    expansion, no cross-tier spans). The bench's baseline.
enum class AllocationPolicy { kDynamic, kStaticEqual };

// Deterministic planning-latency model: charges the planner's counted
// work at fixed per-unit rates instead of sampling wall-clock, so p50 /
// p99 planning latency in benches is reproducible to the bit.
struct PlanningLatencyModel {
  Seconds base = Milliseconds(2);
  Seconds per_surrogate = Microseconds(40);
  Seconds per_simulation = Milliseconds(8);
  Seconds per_cache_hit = Microseconds(2);

  Seconds Latency(int surrogate_priced, int simulated, int cache_hits) const;
};

struct ClusterServiceOptions {
  AllocationPolicy policy = AllocationPolicy::kDynamic;
  // Planner knobs shared by every job; `cache` and `threads` are managed
  // by the service (its shared SurrogateCache is always wired in).
  PlannerOptions planner;
  PlanningLatencyModel latency;
  // Dead nodes rejoin the free pool this long after the failure. A
  // failed job re-enters the queue until its third failure.
  Seconds repair_time = 900;
  // Re-check the service invariants after every processed event (the
  // property fuzz runs with this on; benches turn it off for speed).
  bool verify_invariants = false;
};

// ---- Fleet-wide metrics ----------------------------------------------------

struct ClusterMetrics {
  int submitted = 0;
  int admitted = 0;     // admission events (re-admissions count)
  int completed = 0;
  int failed = 0;       // terminal failures (retry budget exhausted)
  int rejected = 0;     // infeasible on the whole fleet
  int preemptions = 0;
  int shrinks = 0;
  int expands = 0;
  int plan_calls = 0;
  int plan_cache_hits = 0;  // service-level memo hits
  // Modeled planning latency distribution across all planning calls.
  Seconds planning_p50 = 0;
  Seconds planning_p99 = 0;
  // Fraction of jobs whose first admission happened at their arrival
  // instant (no queueing delay).
  double admission_rate = 0;
  Seconds mean_wait = 0;      // arrival → first admission
  Seconds makespan = 0;       // last event time
  // Fleet-wide goodput: useful (planned-compute) device-seconds over
  // fleet device-seconds across the run. The bench's headline metric.
  double goodput = 0;
};

// ---- The service -----------------------------------------------------------

class ClusterService {
 public:
  ClusterService(hw::ClusterTopology fleet, ClusterServiceOptions options);

  // Submits at request.arrival (must be >= the current service time;
  // the clock first advances there, processing due events). Returns the
  // assigned job id. Jobs that can never fit the fleet are rejected
  // immediately (state kReclaimed, a kReject event).
  int Submit(JobRequest request);

  // Kills one node. `node` is the dense per-tier id. If a running job
  // holds it, the job shrinks (survivors re-plan) or fails and requeues;
  // free and repairing nodes just (re-)enter repair.
  void OnNodeFailure(Seconds time, int tier, int node);

  // Advances the wall clock, processing completions and repairs in
  // timestamp order and re-running admission after each.
  void AdvanceTo(Seconds time);

  // Runs until no job is queued or running (all terminal). Returns the
  // final clock.
  Seconds Drain();

  const JobRecord& job(int job_id) const;
  const std::vector<JobRecord>& jobs() const { return jobs_; }
  const std::vector<ClusterEvent>& events() const { return events_; }
  const hw::ClusterTopology& fleet() const { return fleet_; }
  Seconds now() const { return now_; }
  SurrogateCache& cache() { return cache_; }

  ClusterMetrics Metrics() const;

  // The carved sub-topology a job's allocation denotes (what its plan
  // was priced on).
  hw::ClusterTopology CarveFor(const Allocation& alloc) const;

  // Throws CheckError when any service invariant is violated (see the
  // header comment). The property fuzz calls this after every event.
  void VerifyInvariants() const;

 private:
  struct PlanKey {
    Method method = Method::kSvpp;
    int global_batch = 0;
    // TopologyFingerprint of the *carved* sub-fleet (model + tiers +
    // links + iteration knobs): two equal-device carvings from
    // different tiers — or differently-shaped carvings of one tier —
    // digest differently, so their plans can never collide in the memo.
    std::uint64_t carve_fingerprint = 0;

    friend bool operator==(const PlanKey&, const PlanKey&) = default;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& key) const;
  };

  struct Repairing {
    Seconds ready = 0;
    int tier = 0;
    int node = 0;
  };

  void Emit(Seconds time, ClusterEventKind kind, int job_id, std::string detail);
  void ProcessDueEvents(Seconds horizon);
  void CompleteJob(JobRecord& job, Seconds time);
  void ReleaseAllocation(JobRecord& job);
  void CreditProgress(JobRecord& job, Seconds time);
  void AdmissionLoop(Seconds time);
  bool TryAdmit(JobRecord& job, Seconds time);
  bool TryPreemptFor(JobRecord& job, Seconds time);
  void TryExpand(Seconds time);
  // Allocation search over the free pool (plus `extra` nodes when
  // simulating preemption). Returns nullopt when no carve of size
  // [min_nodes, target] fits.
  std::optional<Allocation> FindAllocation(const JobRequest& request, int target_nodes,
                                           const std::vector<std::set<int>>& free) const;
  std::optional<Allocation> StaticAllocation(const JobRequest& request,
                                             const std::vector<std::set<int>>& free) const;
  // Plans `job` on `alloc`'s carve (memoized). Returns false when no
  // feasible strategy exists on that carve.
  bool PlanJob(JobRecord& job, const Allocation& alloc, Seconds time);
  void AdoptPlan(JobRecord& job, const Allocation& alloc, Seconds time);
  int PartitionNodes(int tier) const;

  hw::ClusterTopology fleet_;
  ClusterServiceOptions options_;
  Seconds now_ = 0;
  std::vector<std::set<int>> free_;  // per tier, node ids
  std::vector<Repairing> repairing_;
  std::vector<JobRecord> jobs_;
  std::vector<ClusterEvent> events_;
  std::vector<Seconds> planning_latencies_;
  SurrogateCache cache_;
  std::unordered_map<PlanKey, JobPlan, PlanKeyHash> plan_memo_;
  int plan_calls_ = 0;
  int plan_cache_hits_ = 0;
  int rejected_ = 0;
};

// ---- Deterministic traffic -------------------------------------------------

// One entry of the synthetic job mix: a model preset with demand bounds.
struct JobMixEntry {
  model::TransformerConfig config;
  Method method = Method::kSvpp;
  int global_batch = 16;
  int min_nodes = 1;
  int max_nodes = 2;
  double weight = 1.0;  // sampling weight within the mix
};

struct TrafficOptions {
  int jobs = 16;
  // Poisson arrivals: exponential inter-arrival with this mean.
  Seconds mean_interarrival = 600;
  std::uint64_t seed = 1;
  double min_iterations = 50;
  double max_iterations = 400;
  std::vector<JobMixEntry> mix;    // empty = CHECK-fails
};

// Draws `options.jobs` requests with SplitMixRng(seed): bit-identical
// across toolchains, sorted by arrival. Priorities are drawn from
// [0, 3), and 30% of jobs get a deadline.
std::vector<JobRequest> GenerateTraffic(const TrafficOptions& options);

// Submits every request in arrival order, injects `failures` node
// failures at deterministic times spread over the traffic window
// (seeded), drains, and returns the final metrics.
ClusterMetrics RunTraffic(ClusterService& service, const std::vector<JobRequest>& requests,
                          int failures = 0, std::uint64_t failure_seed = 7);

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_CLUSTER_H_
