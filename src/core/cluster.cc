#include "core/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/format.h"
#include "common/rng.h"
#include "sched/serialize.h"

namespace mepipe::core {
namespace {

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

// A failed job re-enters the queue until this many failures.
constexpr int kMaxFailuresPerJob = 3;

// Synthetic traffic: priorities are drawn from [0, kPriorityClasses),
// and this fraction of jobs gets a deadline.
constexpr std::uint64_t kPriorityClasses = 3;
constexpr double kDeadlineFraction = 0.3;

// Planning view of an allocation: at most `max_nodes` nodes, taken in
// slice order. Static partitions can hold more nodes than a job may use;
// the plan is priced on the capped view while the job still owns (and
// strands) the whole partition — exactly the waste the dynamic policy
// exists to avoid.
Allocation CapAllocation(const Allocation& alloc, int max_nodes) {
  Allocation capped;
  int budget = max_nodes;
  for (std::size_t i = 0; i < alloc.slices.size() && budget > 0; ++i) {
    const int take = std::min(alloc.slices[i].nodes, budget);
    hw::TierSlice slice = alloc.slices[i];
    slice.nodes = take;
    capped.slices.push_back(slice);
    capped.node_ids.emplace_back(alloc.node_ids[i].begin(),
                                 alloc.node_ids[i].begin() + take);
    budget -= take;
  }
  return capped;
}

// FNV-1a 64 over the log body; hex-rendered on the checksum line.
std::uint64_t LogChecksum(const std::string& body) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Seconds PercentileOf(std::vector<Seconds> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t index =
      static_cast<std::size_t>(p * static_cast<double>(values.size() - 1));
  return values[index];
}

}  // namespace

// ---- Small types -----------------------------------------------------------

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kAdmitted:
      return "admitted";
    case JobState::kRunning:
      return "running";
    case JobState::kDraining:
      return "draining";
    case JobState::kFailed:
      return "failed";
    case JobState::kReclaimed:
      return "reclaimed";
  }
  return "?";
}

const char* ClusterEventKindName(ClusterEventKind kind) {
  switch (kind) {
    case ClusterEventKind::kSubmit:
      return "submit";
    case ClusterEventKind::kAdmit:
      return "admit";
    case ClusterEventKind::kComplete:
      return "complete";
    case ClusterEventKind::kNodeFail:
      return "node_fail";
    case ClusterEventKind::kShrink:
      return "shrink";
    case ClusterEventKind::kExpand:
      return "expand";
    case ClusterEventKind::kJobFail:
      return "job_fail";
    case ClusterEventKind::kRequeue:
      return "requeue";
    case ClusterEventKind::kPreempt:
      return "preempt";
    case ClusterEventKind::kRepair:
      return "repair";
    case ClusterEventKind::kReject:
      return "reject";
  }
  return "?";
}

int Allocation::nodes() const {
  int total = 0;
  for (const hw::TierSlice& slice : slices) {
    total += slice.nodes;
  }
  return total;
}

int Allocation::devices(const hw::ClusterTopology& fleet) const {
  int total = 0;
  for (const hw::TierSlice& slice : slices) {
    total += slice.nodes * fleet.tier(slice.tier).gpus_per_node;
  }
  return total;
}

Seconds PlanningLatencyModel::Latency(int surrogate_priced, int simulated,
                                      int cache_hits) const {
  return base + per_surrogate * surrogate_priced + per_simulation * simulated +
         per_cache_hit * cache_hits;
}

// ---- Event log -------------------------------------------------------------

std::string FormatEventLog(const hw::ClusterTopology& fleet,
                           const std::vector<ClusterEvent>& events) {
  int fleet_nodes = 0;
  for (const hw::DeviceTier& tier : fleet.tiers) {
    fleet_nodes += tier.nodes;
  }
  std::string body = "mepipe-cluster-events v1\n";
  body += StrFormat("fleet tiers=%d nodes=%d devices=%d\n", fleet.num_tiers(),
                    fleet_nodes, fleet.world_size());
  for (const ClusterEvent& event : events) {
    body += StrFormat("%.6f %s job=%d", event.time, ClusterEventKindName(event.kind),
                      event.job_id);
    if (!event.detail.empty()) {
      body += ' ';
      body += event.detail;
    }
    body += '\n';
  }
  body += StrFormat("checksum %016llx\n",
                    static_cast<unsigned long long>(LogChecksum(body)));
  return body;
}

bool ValidateEventLog(const std::string& text) {
  if (text.rfind("mepipe-cluster-events v1\n", 0) != 0) {
    return false;
  }
  // The checksum line is the last line; everything above it (including
  // its trailing newline) is the covered body.
  const std::size_t tail = text.find_last_not_of('\n');
  if (tail == std::string::npos || tail + 2 != text.size()) {
    return false;  // exactly one trailing newline
  }
  const std::size_t line_start = text.rfind('\n', tail);
  if (line_start == std::string::npos) {
    return false;
  }
  const std::string last = text.substr(line_start + 1, tail - line_start);
  if (last.rfind("checksum ", 0) != 0 || last.size() != 9 + 16) {
    return false;
  }
  const std::string body = text.substr(0, line_start + 1);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "checksum %016llx",
                static_cast<unsigned long long>(LogChecksum(body)));
  return last == expected;
}

// ---- Service ---------------------------------------------------------------

std::size_t ClusterService::PlanKeyHash::operator()(const PlanKey& key) const {
  std::uint64_t state = key.carve_fingerprint ^
                        (static_cast<std::uint64_t>(key.method) << 48) ^
                        static_cast<std::uint64_t>(key.global_batch);
  std::uint64_t h = SplitMix64(state);
  h ^= SplitMix64(state);
  return static_cast<std::size_t>(h);
}

ClusterService::ClusterService(hw::ClusterTopology fleet, ClusterServiceOptions options)
    : fleet_(std::move(fleet)), options_(std::move(options)) {
  MEPIPE_CHECK_GT(fleet_.num_tiers(), 0);
  MEPIPE_CHECK_GT(options_.repair_time, 0);
  free_.resize(static_cast<std::size_t>(fleet_.num_tiers()));
  for (int t = 0; t < fleet_.num_tiers(); ++t) {
    for (int n = 0; n < fleet_.tier(t).nodes; ++n) {
      free_[static_cast<std::size_t>(t)].insert(n);
    }
  }
}

void ClusterService::Emit(Seconds time, ClusterEventKind kind, int job_id,
                          std::string detail) {
  events_.push_back({time, kind, job_id, std::move(detail)});
}

const JobRecord& ClusterService::job(int job_id) const {
  MEPIPE_CHECK(job_id >= 1 && job_id <= static_cast<int>(jobs_.size()))
      << "unknown job " << job_id;
  return jobs_[static_cast<std::size_t>(job_id - 1)];
}

int ClusterService::PartitionNodes(int tier) const {
  return std::max(1, fleet_.tier(tier).nodes / 4);
}

hw::ClusterTopology ClusterService::CarveFor(const Allocation& alloc) const {
  return hw::CarveSubTopology(fleet_, alloc.slices);
}

int ClusterService::Submit(JobRequest request) {
  MEPIPE_CHECK_GE(request.arrival, now_) << "arrivals must be non-decreasing";
  MEPIPE_CHECK_GE(request.min_nodes, 1);
  MEPIPE_CHECK_GE(request.max_nodes, request.min_nodes);
  MEPIPE_CHECK_GT(request.iterations, 0);
  MEPIPE_CHECK_GT(request.global_batch, 0);
  MEPIPE_CHECK_LT(request.preferred_tier, fleet_.num_tiers());
  AdvanceTo(request.arrival);

  JobRecord job;
  job.job_id = static_cast<int>(jobs_.size()) + 1;
  if (request.name.empty()) {
    request.name = StrFormat("job%d", job.job_id);
  }
  job.remaining_iterations = request.iterations;
  job.request = std::move(request);
  jobs_.push_back(std::move(job));
  JobRecord& stored = jobs_.back();
  Emit(now_, ClusterEventKind::kSubmit, stored.job_id,
       StrFormat("%s prio=%d nodes=[%d,%d] iters=%g", stored.request.name.c_str(),
                 stored.request.priority, stored.request.min_nodes,
                 stored.request.max_nodes, stored.request.iterations));

  // Structural capacity check: a demand no healthy fleet state can meet
  // is rejected up front rather than queued forever.
  int capacity = 0;
  if (options_.policy == AllocationPolicy::kStaticEqual) {
    if (stored.request.preferred_tier >= 0) {
      capacity = PartitionNodes(stored.request.preferred_tier);
    } else {
      for (int t = 0; t < fleet_.num_tiers(); ++t) {
        capacity = std::max(capacity, PartitionNodes(t));
      }
    }
  } else if (stored.request.preferred_tier >= 0) {
    capacity = fleet_.tier(stored.request.preferred_tier).nodes;
  } else {
    for (const hw::DeviceTier& tier : fleet_.tiers) {
      capacity += tier.nodes;
    }
  }
  if (stored.request.min_nodes > capacity) {
    stored.state = JobState::kReclaimed;
    ++rejected_;
    Emit(now_, ClusterEventKind::kReject, stored.job_id,
         StrFormat("min_nodes=%d exceeds capacity=%d", stored.request.min_nodes,
                   capacity));
  } else {
    AdmissionLoop(now_);
  }
  if (options_.verify_invariants) {
    VerifyInvariants();
  }
  return stored.job_id;
}

void ClusterService::CreditProgress(JobRecord& job, Seconds time) {
  if (job.plan.iteration_time <= 0 || time <= job.segment_start) {
    job.segment_start = std::max(job.segment_start, time);
    return;
  }
  const double done = std::min(job.remaining_iterations,
                               (time - job.segment_start) / job.plan.iteration_time);
  job.completed_iterations += done;
  job.remaining_iterations -= done;
  job.useful_device_seconds +=
      done * job.plan.iteration_time * job.alloc.devices(fleet_);
  job.segment_start = time;
}

void ClusterService::ReleaseAllocation(JobRecord& job) {
  for (std::size_t i = 0; i < job.alloc.slices.size(); ++i) {
    auto& pool = free_[static_cast<std::size_t>(job.alloc.slices[i].tier)];
    for (const int node : job.alloc.node_ids[i]) {
      pool.insert(node);
    }
  }
  job.alloc = Allocation{};
}

void ClusterService::CompleteJob(JobRecord& job, Seconds time) {
  CreditProgress(job, time);
  job.state = JobState::kDraining;
  Emit(time, ClusterEventKind::kComplete, job.job_id,
       StrFormat("iters=%g useful=%.3f", job.completed_iterations,
                 job.useful_device_seconds));
  ReleaseAllocation(job);
  job.state = JobState::kReclaimed;
}

bool ClusterService::PlanJob(JobRecord& job, const Allocation& alloc, Seconds time) {
  (void)time;
  const Allocation target = CapAllocation(alloc, job.request.max_nodes);
  const hw::ClusterTopology carve = CarveFor(target);

  PlannerOptions popts = options_.planner;
  popts.cache = &cache_;
  popts.iteration.keep_schedule = true;
  popts.iteration.keep_timeline = false;

  PlanKey key;
  key.method = job.request.method;
  key.global_batch = job.request.global_batch;
  key.carve_fingerprint =
      TopologyFingerprint(job.request.config, carve, popts.iteration);

  ++plan_calls_;
  const auto memo = plan_memo_.find(key);
  if (memo != plan_memo_.end()) {
    ++plan_cache_hits_;
    job.plan = memo->second;
    job.plan.from_plan_cache = true;
    job.plan.planning_latency = options_.latency.Latency(0, 0, 0);
    planning_latencies_.push_back(job.plan.planning_latency);
    return job.plan.feasible;
  }

  const FleetPlannerResult result =
      SearchBestFleetStrategy(job.request.method, job.request.config, carve,
                              job.request.global_batch, popts, carve.num_tiers() == 1);
  JobPlan plan;
  plan.fleet_path = carve.num_tiers() > 1;
  plan.surrogate_priced = result.surrogate_priced;
  plan.simulated = result.simulated;
  plan.cache_hits = result.cache_hits;
  if (result.best) {
    plan.feasible = true;
    plan.strategy = result.best->placed.strategy;
    plan.placement = result.best->placed.placement;
    plan.iteration_time = result.best->result.iteration_time;
    plan.peak_memory = result.best->result.peak_memory;
    plan.usd_per_iteration = result.best->dollars.usd_per_iteration;
    if (!result.best->result.schedule.stage_ops.empty()) {
      plan.schedule_text = std::make_shared<const std::string>(
          sched::SerializeSchedule(result.best->result.schedule));
    }
  }
  plan.planning_latency =
      options_.latency.Latency(plan.surrogate_priced, plan.simulated, plan.cache_hits);
  plan_memo_.emplace(key, plan);
  planning_latencies_.push_back(plan.planning_latency);
  job.plan = plan;
  return plan.feasible;
}

void ClusterService::AdoptPlan(JobRecord& job, const Allocation& alloc, Seconds time) {
  MEPIPE_CHECK(job.plan.feasible);
  job.alloc = alloc;
  job.admit_time = time;
  job.segment_start = time + job.plan.planning_latency;
  job.finish_time =
      job.segment_start + job.remaining_iterations * job.plan.iteration_time;
  job.state = JobState::kAdmitted;
}

std::optional<Allocation> ClusterService::StaticAllocation(
    const JobRequest& request, const std::vector<std::set<int>>& free) const {
  for (int t = 0; t < fleet_.num_tiers(); ++t) {
    if (request.preferred_tier >= 0 && t != request.preferred_tier) {
      continue;
    }
    const int width = PartitionNodes(t);
    if (width < request.min_nodes) {
      continue;
    }
    const auto& pool = free[static_cast<std::size_t>(t)];
    const int partitions = fleet_.tier(t).nodes / width;
    for (int p = 0; p < partitions; ++p) {
      bool whole = true;
      for (int n = p * width; n < (p + 1) * width; ++n) {
        if (pool.count(n) == 0) {
          whole = false;
          break;
        }
      }
      if (!whole) {
        continue;
      }
      Allocation alloc;
      alloc.slices.push_back({t, width});
      std::vector<int> ids;
      for (int n = p * width; n < (p + 1) * width; ++n) {
        ids.push_back(n);
      }
      alloc.node_ids.push_back(std::move(ids));
      return alloc;
    }
  }
  return std::nullopt;
}

std::optional<Allocation> ClusterService::FindAllocation(
    const JobRequest& request, int target_nodes,
    const std::vector<std::set<int>>& free) const {
  if (options_.policy == AllocationPolicy::kStaticEqual) {
    return StaticAllocation(request, free);
  }
  for (int size = target_nodes; size >= request.min_nodes; --size) {
    // Single-tier carve first (tier index ascending, smallest node ids).
    for (int t = 0; t < fleet_.num_tiers(); ++t) {
      if (request.preferred_tier >= 0 && t != request.preferred_tier) {
        continue;
      }
      const auto& pool = free[static_cast<std::size_t>(t)];
      if (static_cast<int>(pool.size()) < size) {
        continue;
      }
      Allocation alloc;
      alloc.slices.push_back({t, size});
      alloc.node_ids.emplace_back(pool.begin(), std::next(pool.begin(), size));
      return alloc;
    }
    // Cross-tier span (the fleet-planner path), tiers ascending.
    if (request.preferred_tier < 0) {
      Allocation alloc;
      int need = size;
      for (int t = 0; t < fleet_.num_tiers() && need > 0; ++t) {
        const auto& pool = free[static_cast<std::size_t>(t)];
        const int take = std::min<int>(static_cast<int>(pool.size()), need);
        if (take == 0) {
          continue;
        }
        alloc.slices.push_back({t, take});
        alloc.node_ids.emplace_back(pool.begin(), std::next(pool.begin(), take));
        need -= take;
      }
      if (need == 0 && alloc.slices.size() > 1) {
        return alloc;
      }
    }
  }
  return std::nullopt;
}

bool ClusterService::TryAdmit(JobRecord& job, Seconds time) {
  // Sizes descend from the full demand; a carve that allocates but does
  // not plan (no feasible strategy) falls through to the next size. The
  // static policy has exactly one carve shape, so it gets one attempt.
  for (int target = job.request.max_nodes; target >= job.request.min_nodes; --target) {
    const std::optional<Allocation> alloc = FindAllocation(job.request, target, free_);
    if (alloc && PlanJob(job, *alloc, time)) {
      for (std::size_t i = 0; i < alloc->slices.size(); ++i) {
        auto& pool = free_[static_cast<std::size_t>(alloc->slices[i].tier)];
        for (const int node : alloc->node_ids[i]) {
          MEPIPE_CHECK_EQ(pool.erase(node), 1u);
        }
      }
      AdoptPlan(job, *alloc, time);
      Emit(time, ClusterEventKind::kAdmit, job.job_id,
           StrFormat("nodes=%d %s t=%.6f/iter", alloc->nodes(),
                     job.plan.strategy.ToString().c_str(), job.plan.iteration_time));
      return true;
    }
    if (options_.policy == AllocationPolicy::kStaticEqual) {
      return false;
    }
  }
  return false;
}

bool ClusterService::TryPreemptFor(JobRecord& job, Seconds time) {
  if (options_.policy != AllocationPolicy::kDynamic) {
    return false;
  }
  // Victims: strictly lower priority; cheapest class first, youngest
  // admission first within a class.
  std::vector<JobRecord*> victims;
  for (JobRecord& other : jobs_) {
    if ((other.state == JobState::kAdmitted || other.state == JobState::kRunning) &&
        other.request.priority < job.request.priority) {
      victims.push_back(&other);
    }
  }
  if (victims.empty()) {
    return false;
  }
  std::sort(victims.begin(), victims.end(), [](const JobRecord* a, const JobRecord* b) {
    if (a->request.priority != b->request.priority) {
      return a->request.priority < b->request.priority;
    }
    if (a->admit_time != b->admit_time) {
      return a->admit_time > b->admit_time;
    }
    return a->job_id > b->job_id;
  });

  // Candidate victim sets: every single victim first (plan feasibility
  // is not monotone in the node pool, so singles must be exhausted
  // before pairs for the single-victim no-inversion invariant to hold by
  // construction), then growing prefixes of the sorted list.
  std::vector<std::vector<JobRecord*>> sets;
  for (JobRecord* victim : victims) {
    sets.push_back({victim});
  }
  for (std::size_t k = 2; k <= victims.size(); ++k) {
    sets.emplace_back(victims.begin(),
                      victims.begin() + static_cast<std::ptrdiff_t>(k));
  }

  for (const auto& set : sets) {
    std::vector<std::set<int>> pool = free_;
    for (const JobRecord* victim : set) {
      for (std::size_t i = 0; i < victim->alloc.slices.size(); ++i) {
        auto& tier_pool = pool[static_cast<std::size_t>(victim->alloc.slices[i].tier)];
        tier_pool.insert(victim->alloc.node_ids[i].begin(),
                         victim->alloc.node_ids[i].end());
      }
    }
    const std::optional<Allocation> alloc =
        FindAllocation(job.request, job.request.max_nodes, pool);
    if (!alloc || !PlanJob(job, *alloc, time)) {
      continue;
    }
    // Commit: evict the set, then take the allocation from the now-real
    // free pool (which equals `pool` by construction).
    for (JobRecord* victim : set) {
      CreditProgress(*victim, time);
      ReleaseAllocation(*victim);
      ++victim->preempt_count;
      victim->state = JobState::kQueued;
      Emit(time, ClusterEventKind::kPreempt, victim->job_id,
           StrFormat("by=%d remaining=%g", job.job_id, victim->remaining_iterations));
    }
    for (std::size_t i = 0; i < alloc->slices.size(); ++i) {
      auto& tier_pool = free_[static_cast<std::size_t>(alloc->slices[i].tier)];
      for (const int node : alloc->node_ids[i]) {
        MEPIPE_CHECK_EQ(tier_pool.erase(node), 1u);
      }
    }
    AdoptPlan(job, *alloc, time);
    Emit(time, ClusterEventKind::kAdmit, job.job_id,
         StrFormat("nodes=%d %s t=%.6f/iter preempting", alloc->nodes(),
                   job.plan.strategy.ToString().c_str(), job.plan.iteration_time));
    return true;
  }
  return false;
}

void ClusterService::TryExpand(Seconds time) {
  if (options_.policy != AllocationPolicy::kDynamic) {
    return;
  }
  bool adopted = true;
  while (adopted) {
    adopted = false;
    std::vector<JobRecord*> running;
    for (JobRecord& job : jobs_) {
      if ((job.state == JobState::kAdmitted || job.state == JobState::kRunning) &&
          job.alloc.nodes() < job.request.max_nodes) {
        running.push_back(&job);
      }
    }
    std::sort(running.begin(), running.end(),
              [](const JobRecord* a, const JobRecord* b) {
                if (a->request.priority != b->request.priority) {
                  return a->request.priority > b->request.priority;
                }
                return a->job_id < b->job_id;
              });
    for (JobRecord* job : running) {
      std::vector<std::set<int>> pool = free_;
      for (std::size_t i = 0; i < job->alloc.slices.size(); ++i) {
        auto& tier_pool = pool[static_cast<std::size_t>(job->alloc.slices[i].tier)];
        tier_pool.insert(job->alloc.node_ids[i].begin(), job->alloc.node_ids[i].end());
      }
      const std::optional<Allocation> alloc =
          FindAllocation(job->request, job->request.max_nodes, pool);
      if (!alloc || alloc->nodes() <= job->alloc.nodes()) {
        continue;
      }
      // Price the candidate without committing; adopt only on strict
      // predicted-completion improvement (the elastic runtime's
      // re-expansion rule).
      JobRecord probe = *job;
      if (!PlanJob(probe, *alloc, time)) {
        continue;
      }
      CreditProgress(*job, time);
      const Seconds new_finish = time + probe.plan.planning_latency +
                                 job->remaining_iterations * probe.plan.iteration_time;
      if (new_finish + 1e-9 >= job->finish_time) {
        continue;
      }
      ReleaseAllocation(*job);
      for (std::size_t i = 0; i < alloc->slices.size(); ++i) {
        auto& tier_pool = free_[static_cast<std::size_t>(alloc->slices[i].tier)];
        for (const int node : alloc->node_ids[i]) {
          MEPIPE_CHECK_EQ(tier_pool.erase(node), 1u);
        }
      }
      job->plan = probe.plan;
      AdoptPlan(*job, *alloc, time);
      ++job->expand_count;
      Emit(time, ClusterEventKind::kExpand, job->job_id,
           StrFormat("nodes=%d t=%.6f/iter", alloc->nodes(), job->plan.iteration_time));
      adopted = true;
      break;  // re-rank and re-scan after every adoption
    }
  }
}

void ClusterService::AdmissionLoop(Seconds time) {
  bool admitted = true;
  while (admitted) {
    admitted = false;
    std::vector<JobRecord*> queued;
    for (JobRecord& job : jobs_) {
      if (job.state == JobState::kQueued) {
        queued.push_back(&job);
      }
    }
    std::sort(queued.begin(), queued.end(), [](const JobRecord* a, const JobRecord* b) {
      if (a->request.priority != b->request.priority) {
        return a->request.priority > b->request.priority;
      }
      const Seconds da = a->request.deadline > 0 ? a->request.deadline : kInf;
      const Seconds db = b->request.deadline > 0 ? b->request.deadline : kInf;
      if (da != db) {
        return da < db;
      }
      if (a->request.arrival != b->request.arrival) {
        return a->request.arrival < b->request.arrival;
      }
      return a->job_id < b->job_id;
    });
    for (JobRecord* job : queued) {
      if (TryAdmit(*job, time) || TryPreemptFor(*job, time)) {
        admitted = true;
        break;  // capacity changed: re-rank from scratch
      }
    }
  }
  TryExpand(time);
}

void ClusterService::ProcessDueEvents(Seconds horizon) {
  while (true) {
    // Flip planning-complete jobs to running (no event; this is the
    // state machine's admitted → running edge).
    for (JobRecord& job : jobs_) {
      if (job.state == JobState::kAdmitted && job.segment_start <= now_) {
        job.state = JobState::kRunning;
      }
    }
    Seconds completion = kInf;
    int complete_job = -1;
    for (const JobRecord& job : jobs_) {
      if ((job.state == JobState::kAdmitted || job.state == JobState::kRunning) &&
          job.finish_time < completion) {
        completion = job.finish_time;
        complete_job = job.job_id;  // jobs_ is id-ordered: lowest id wins ties
      }
    }
    Seconds repair = kInf;
    std::size_t repair_index = repairing_.size();
    for (std::size_t i = 0; i < repairing_.size(); ++i) {
      const Repairing& r = repairing_[i];
      if (r.ready < repair ||
          (r.ready == repair && repair_index < repairing_.size() &&
           std::pair{r.tier, r.node} < std::pair{repairing_[repair_index].tier,
                                                 repairing_[repair_index].node})) {
        repair = r.ready;
        repair_index = i;
      }
    }
    const Seconds next = std::min(completion, repair);
    if (next > horizon || std::isinf(next)) {
      break;
    }
    now_ = next;
    if (completion <= repair) {  // ties: completions first
      CompleteJob(jobs_[static_cast<std::size_t>(complete_job - 1)], now_);
    } else {
      const Repairing r = repairing_[repair_index];
      repairing_.erase(repairing_.begin() + static_cast<std::ptrdiff_t>(repair_index));
      free_[static_cast<std::size_t>(r.tier)].insert(r.node);
      Emit(now_, ClusterEventKind::kRepair, -1,
           StrFormat("tier=%d node=%d", r.tier, r.node));
    }
    AdmissionLoop(now_);
    if (options_.verify_invariants) {
      VerifyInvariants();
    }
  }
}

void ClusterService::AdvanceTo(Seconds time) {
  MEPIPE_CHECK_GE(time, now_) << "the service clock cannot run backwards";
  ProcessDueEvents(time);
  now_ = time;
  for (JobRecord& job : jobs_) {
    if (job.state == JobState::kAdmitted && job.segment_start <= now_) {
      job.state = JobState::kRunning;
    }
  }
}

void ClusterService::OnNodeFailure(Seconds time, int tier, int node) {
  MEPIPE_CHECK(tier >= 0 && tier < fleet_.num_tiers());
  MEPIPE_CHECK(node >= 0 && node < fleet_.tier(tier).nodes);
  AdvanceTo(time);

  // Already down: the repair clock keeps its original deadline.
  for (const Repairing& r : repairing_) {
    if (r.tier == tier && r.node == node) {
      return;
    }
  }

  auto& pool = free_[static_cast<std::size_t>(tier)];
  if (pool.erase(node) > 0) {
    Emit(now_, ClusterEventKind::kNodeFail, -1,
         StrFormat("tier=%d node=%d idle", tier, node));
    repairing_.push_back({now_ + options_.repair_time, tier, node});
    if (options_.verify_invariants) {
      VerifyInvariants();
    }
    return;
  }

  // Find the owning job.
  JobRecord* owner = nullptr;
  std::size_t slice_index = 0;
  for (JobRecord& job : jobs_) {
    if (job.state != JobState::kAdmitted && job.state != JobState::kRunning) {
      continue;
    }
    for (std::size_t i = 0; i < job.alloc.slices.size() && owner == nullptr; ++i) {
      if (job.alloc.slices[i].tier != tier) {
        continue;
      }
      const auto& ids = job.alloc.node_ids[i];
      if (std::find(ids.begin(), ids.end(), node) != ids.end()) {
        owner = &job;
        slice_index = i;
      }
    }
    if (owner != nullptr) {
      break;
    }
  }
  MEPIPE_CHECK(owner != nullptr) << "node neither free, repairing, nor allocated";

  Emit(now_, ClusterEventKind::kNodeFail, owner->job_id,
       StrFormat("tier=%d node=%d", tier, node));
  repairing_.push_back({now_ + options_.repair_time, tier, node});
  CreditProgress(*owner, now_);

  // Shrink to the survivors (the elastic runtime's idiom): drop the dead
  // node from the allocation, re-plan the carve, keep running when a
  // feasible plan exists above the job's minimum demand.
  Allocation survivors = owner->alloc;
  auto& ids = survivors.node_ids[slice_index];
  ids.erase(std::find(ids.begin(), ids.end(), node));
  if (--survivors.slices[slice_index].nodes == 0) {
    survivors.slices.erase(survivors.slices.begin() +
                           static_cast<std::ptrdiff_t>(slice_index));
    survivors.node_ids.erase(survivors.node_ids.begin() +
                             static_cast<std::ptrdiff_t>(slice_index));
  }
  owner->alloc = Allocation{};  // the dead node is already out of play

  const bool dynamic = options_.policy == AllocationPolicy::kDynamic;
  if (dynamic && survivors.nodes() >= owner->request.min_nodes &&
      PlanJob(*owner, survivors, now_)) {
    ++owner->shrink_count;
    AdoptPlan(*owner, survivors, now_);
    Emit(now_, ClusterEventKind::kShrink, owner->job_id,
         StrFormat("nodes=%d t=%.6f/iter", survivors.nodes(),
                   owner->plan.iteration_time));
  } else {
    // Below minimum (or static policy, which never reshapes): fail, free
    // the survivors, and requeue while the retry budget lasts.
    owner->alloc = survivors;
    ReleaseAllocation(*owner);
    ++owner->failure_count;
    owner->state = JobState::kFailed;
    if (owner->failure_count >= kMaxFailuresPerJob) {
      Emit(now_, ClusterEventKind::kJobFail, owner->job_id,
           StrFormat("terminal after %d failures", owner->failure_count));
      owner->state = JobState::kReclaimed;
    } else {
      Emit(now_, ClusterEventKind::kJobFail, owner->job_id,
           StrFormat("failure %d, requeued", owner->failure_count));
      owner->state = JobState::kQueued;
      Emit(now_, ClusterEventKind::kRequeue, owner->job_id,
           StrFormat("remaining=%g", owner->remaining_iterations));
    }
  }
  AdmissionLoop(now_);
  if (options_.verify_invariants) {
    VerifyInvariants();
  }
}

Seconds ClusterService::Drain() {
  while (true) {
    bool live = false;
    bool queued = false;
    Seconds next = kInf;
    for (const JobRecord& job : jobs_) {
      if (job.state == JobState::kAdmitted || job.state == JobState::kRunning) {
        live = true;
        next = std::min(next, job.finish_time);
      } else if (job.state == JobState::kQueued) {
        queued = true;
      }
    }
    if (!live && !queued) {
      break;  // pending repairs without demand are irrelevant
    }
    if (queued) {
      for (const Repairing& r : repairing_) {
        next = std::min(next, r.ready);
      }
    }
    if (std::isinf(next)) {
      // No pending event can ever free more capacity: queued leftovers
      // are unservable (they saw the whole healthy fleet) and reject
      // terminally.
      for (JobRecord& job : jobs_) {
        if (job.state == JobState::kQueued) {
          job.state = JobState::kReclaimed;
          ++rejected_;
          Emit(now_, ClusterEventKind::kReject, job.job_id, "unservable at drain");
        }
      }
      break;
    }
    AdvanceTo(next);
  }
  if (options_.verify_invariants) {
    VerifyInvariants();
  }
  return now_;
}

void ClusterService::VerifyInvariants() const {
  // 1. Disjointness + conservation: every node of every tier is owned by
  // exactly one of {free, repairing, some admitted/running job}.
  for (int t = 0; t < fleet_.num_tiers(); ++t) {
    std::vector<int> owners(static_cast<std::size_t>(fleet_.tier(t).nodes), 0);
    for (const int node : free_[static_cast<std::size_t>(t)]) {
      ++owners[static_cast<std::size_t>(node)];
    }
    for (const Repairing& r : repairing_) {
      if (r.tier == t) {
        ++owners[static_cast<std::size_t>(r.node)];
      }
    }
    for (const JobRecord& job : jobs_) {
      if (job.state != JobState::kAdmitted && job.state != JobState::kRunning) {
        MEPIPE_CHECK(job.alloc.empty())
            << "job " << job.job_id << " holds nodes in state "
            << JobStateName(job.state);
        continue;
      }
      for (std::size_t i = 0; i < job.alloc.slices.size(); ++i) {
        if (job.alloc.slices[i].tier != t) {
          continue;
        }
        MEPIPE_CHECK_EQ(static_cast<int>(job.alloc.node_ids[i].size()),
                        job.alloc.slices[i].nodes);
        for (const int node : job.alloc.node_ids[i]) {
          ++owners[static_cast<std::size_t>(node)];
        }
      }
    }
    for (int node = 0; node < fleet_.tier(t).nodes; ++node) {
      MEPIPE_CHECK_EQ(owners[static_cast<std::size_t>(node)], 1)
          << "tier " << t << " node " << node << " owned "
          << owners[static_cast<std::size_t>(node)] << " times";
    }
  }

  // 2. Every held allocation backs a feasible, memory-feasible plan
  // within the job's demand bounds.
  for (const JobRecord& job : jobs_) {
    if (job.state != JobState::kAdmitted && job.state != JobState::kRunning) {
      continue;
    }
    MEPIPE_CHECK(job.plan.feasible) << "job " << job.job_id << " runs without a plan";
    MEPIPE_CHECK_GT(job.plan.iteration_time, 0);
    MEPIPE_CHECK_GE(job.alloc.nodes(), job.request.min_nodes);
    if (options_.policy == AllocationPolicy::kDynamic) {
      MEPIPE_CHECK_LE(job.alloc.nodes(), job.request.max_nodes);
    }
    Bytes roomiest_device = 0;
    for (const hw::TierSlice& slice : job.alloc.slices) {
      roomiest_device =
          std::max(roomiest_device, fleet_.tier(slice.tier).gpu.usable_memory());
    }
    MEPIPE_CHECK_LE(job.plan.peak_memory, roomiest_device)
        << "job " << job.job_id << " plan exceeds device memory";
  }

  // 3. Admission maximality and no single-victim priority inversion.
  // Both checks consult the plan memo read-only: a queued job is only a
  // violation when an allocation exists AND the memo already proves a
  // feasible plan for that exact carve — precisely what the admission
  // loop would have acted on (it memoizes every carve it prices,
  // including infeasible outcomes).
  const auto provably_admissible = [&](const JobRecord& q,
                                       const std::vector<std::set<int>>& pool) {
    const std::optional<Allocation> alloc =
        FindAllocation(q.request, q.request.max_nodes, pool);
    if (!alloc) {
      return false;
    }
    PlannerOptions popts = options_.planner;
    popts.iteration.keep_schedule = true;
    popts.iteration.keep_timeline = false;
    PlanKey key;
    key.method = q.request.method;
    key.global_batch = q.request.global_batch;
    key.carve_fingerprint = TopologyFingerprint(
        q.request.config, CarveFor(CapAllocation(*alloc, q.request.max_nodes)),
        popts.iteration);
    const auto memo = plan_memo_.find(key);
    return memo != plan_memo_.end() && memo->second.feasible;
  };
  for (const JobRecord& q : jobs_) {
    if (q.state != JobState::kQueued) {
      continue;
    }
    MEPIPE_CHECK(!provably_admissible(q, free_))
        << "queued job " << q.job_id << " fits the free pool";
    if (options_.policy != AllocationPolicy::kDynamic) {
      continue;
    }
    for (const JobRecord& r : jobs_) {
      if ((r.state != JobState::kAdmitted && r.state != JobState::kRunning) ||
          r.request.priority >= q.request.priority) {
        continue;
      }
      std::vector<std::set<int>> pool = free_;
      for (std::size_t i = 0; i < r.alloc.slices.size(); ++i) {
        auto& tier_pool = pool[static_cast<std::size_t>(r.alloc.slices[i].tier)];
        tier_pool.insert(r.alloc.node_ids[i].begin(), r.alloc.node_ids[i].end());
      }
      MEPIPE_CHECK(!provably_admissible(q, pool))
          << "priority inversion: queued job " << q.job_id << " (prio "
          << q.request.priority << ") fits over running job " << r.job_id
          << " (prio " << r.request.priority << ")";
    }
  }
}

ClusterMetrics ClusterService::Metrics() const {
  ClusterMetrics m;
  m.submitted = static_cast<int>(jobs_.size());
  m.rejected = rejected_;
  m.plan_calls = plan_calls_;
  m.plan_cache_hits = plan_cache_hits_;
  Seconds last_event = 0;
  for (const ClusterEvent& event : events_) {
    last_event = std::max(last_event, event.time);
    switch (event.kind) {
      case ClusterEventKind::kAdmit:
        ++m.admitted;
        break;
      case ClusterEventKind::kComplete:
        ++m.completed;
        break;
      case ClusterEventKind::kPreempt:
        ++m.preemptions;
        break;
      case ClusterEventKind::kShrink:
        ++m.shrinks;
        break;
      case ClusterEventKind::kExpand:
        ++m.expands;
        break;
      case ClusterEventKind::kJobFail:
        if (event.detail.rfind("terminal", 0) == 0) {
          ++m.failed;
        }
        break;
      default:
        break;
    }
  }
  // First-admission waits, from the event stream (first kAdmit per job).
  std::vector<Seconds> first_admit(jobs_.size(), -1);
  for (const ClusterEvent& event : events_) {
    if (event.kind == ClusterEventKind::kAdmit && event.job_id >= 1) {
      Seconds& slot = first_admit[static_cast<std::size_t>(event.job_id - 1)];
      if (slot < 0) {
        slot = event.time;
      }
    }
  }
  Seconds wait_sum = 0;
  int waited = 0;
  int immediate = 0;
  double useful = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    useful += jobs_[i].useful_device_seconds;
    if (first_admit[i] < 0) {
      continue;
    }
    const Seconds wait = first_admit[i] - jobs_[i].request.arrival;
    wait_sum += wait;
    ++waited;
    if (wait <= 1e-12) {
      ++immediate;
    }
  }
  m.mean_wait = waited > 0 ? wait_sum / waited : 0;
  m.admission_rate = m.submitted > 0 ? static_cast<double>(immediate) / m.submitted : 0;
  m.planning_p50 = PercentileOf(planning_latencies_, 0.50);
  m.planning_p99 = PercentileOf(planning_latencies_, 0.99);
  m.makespan = std::max(now_, last_event);
  const double fleet_device_seconds = m.makespan * fleet_.world_size();
  m.goodput = fleet_device_seconds > 0 ? useful / fleet_device_seconds : 0;
  return m;
}

// ---- Deterministic traffic -------------------------------------------------

std::vector<JobRequest> GenerateTraffic(const TrafficOptions& options) {
  MEPIPE_CHECK(!options.mix.empty()) << "traffic needs a job mix";
  MEPIPE_CHECK_GT(options.jobs, 0);
  MEPIPE_CHECK_GT(options.mean_interarrival, 0);
  double total_weight = 0;
  for (const JobMixEntry& entry : options.mix) {
    MEPIPE_CHECK_GT(entry.weight, 0);
    total_weight += entry.weight;
  }
  SplitMixRng rng(options.seed);
  std::vector<JobRequest> requests;
  Seconds clock = 0;
  for (int i = 0; i < options.jobs; ++i) {
    clock += rng.NextExponential(options.mean_interarrival);
    double pick = rng.NextUniform() * total_weight;
    const JobMixEntry* entry = &options.mix.back();
    for (const JobMixEntry& candidate : options.mix) {
      if (pick < candidate.weight) {
        entry = &candidate;
        break;
      }
      pick -= candidate.weight;
    }
    JobRequest request;
    request.config = entry->config;
    request.method = entry->method;
    request.global_batch = entry->global_batch;
    request.min_nodes = entry->min_nodes;
    request.max_nodes = entry->max_nodes;
    request.arrival = clock;
    request.priority = static_cast<int>(rng.NextU64() % kPriorityClasses);
    const double span = std::max(0.0, options.max_iterations - options.min_iterations);
    request.iterations =
        std::floor(options.min_iterations + rng.NextUniform() * span) + 1;
    if (rng.NextUniform() < kDeadlineFraction) {
      request.deadline = clock + options.mean_interarrival * (2 + 6 * rng.NextUniform());
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

ClusterMetrics RunTraffic(ClusterService& service,
                          const std::vector<JobRequest>& requests, int failures,
                          std::uint64_t failure_seed) {
  MEPIPE_CHECK_GE(failures, 0);
  struct Failure {
    Seconds time = 0;
    int tier = 0;
    int node = 0;
  };
  std::vector<Failure> plan;
  if (failures > 0 && !requests.empty()) {
    SplitMixRng rng(failure_seed);
    const Seconds window = requests.back().arrival;
    for (int i = 0; i < failures; ++i) {
      Failure f;
      f.time = window * (i + 1) / (failures + 1);
      f.tier = static_cast<int>(
          rng.NextU64() % static_cast<std::uint64_t>(service.fleet().num_tiers()));
      f.node = static_cast<int>(
          rng.NextU64() % static_cast<std::uint64_t>(service.fleet().tier(f.tier).nodes));
      plan.push_back(f);
    }
  }
  std::size_t next_failure = 0;
  for (const JobRequest& request : requests) {
    while (next_failure < plan.size() && plan[next_failure].time <= request.arrival) {
      service.OnNodeFailure(std::max(plan[next_failure].time, service.now()),
                            plan[next_failure].tier, plan[next_failure].node);
      ++next_failure;
    }
    service.Submit(request);
  }
  while (next_failure < plan.size()) {
    service.OnNodeFailure(std::max(plan[next_failure].time, service.now()),
                          plan[next_failure].tier, plan[next_failure].node);
    ++next_failure;
  }
  service.Drain();
  return service.Metrics();
}

}  // namespace mepipe::core
