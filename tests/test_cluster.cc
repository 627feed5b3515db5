// Multi-job cluster service: property fuzz over seeded traffic (the
// service invariants re-checked after every admission / completion /
// failure event), a differential single-job contract against calling
// the planner directly, the carve-fingerprint plan-memo regression,
// byte-stable admission-timeline snapshots with corrupted-log
// detection, and the job-tag threading through schedules, simulation
// spans, and serialization that multi-job timelines rely on.
#include "core/cluster.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "core/planner.h"
#include "core/surrogate.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "sched/serialize.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "trace/chrome_trace.h"
#include "golden.h"

namespace mepipe::core {
namespace {

// Small two-tier fleet (4 + 2 nodes) so planner grids stay cheap while
// cross-tier spans, preferred-tier carves, and static partitions all
// still occur.
hw::ClusterTopology SmallFleet() {
  hw::DeviceTier cheap = hw::Rtx4090Tier();
  cheap.nodes = 4;
  hw::DeviceTier premium = hw::A100Tier();
  premium.nodes = 2;
  hw::ClusterTopology fleet;
  fleet.tiers = {cheap, premium};
  fleet.SetLinkBetween(0, 1, hw::LanLink(hw::Rtx4090Cluster().inter_node));
  return fleet;
}

ClusterServiceOptions FastOptions(AllocationPolicy policy) {
  ClusterServiceOptions options;
  options.policy = policy;
  options.planner.min_dp = 1;
  options.planner.pp_candidates = {2, 4};
  options.planner.slice_candidates = {1, 2};
  options.planner.vp_candidates = {1};
  options.planner.two_phase = true;
  options.planner.surrogate_top_k = 2;
  options.planner.threads = 1;
  return options;
}

TrafficOptions FuzzTraffic(std::uint64_t seed, int jobs, Seconds mean_interarrival) {
  TrafficOptions options;
  options.jobs = jobs;
  options.mean_interarrival = mean_interarrival;
  options.seed = seed;
  JobMixEntry small;
  small.config = model::Llama7B();
  small.global_batch = 8;
  small.min_nodes = 1;
  small.max_nodes = 2;
  small.weight = 2.0;
  JobMixEntry large;
  large.config = model::Llama13B();
  large.global_batch = 16;
  large.min_nodes = 2;
  large.max_nodes = 3;
  large.weight = 1.0;
  options.mix = {small, large};
  return options;
}

// ---- Property fuzz ---------------------------------------------------------

// 100+ seeded scenarios across policies, loads, fleet shapes, and
// failure counts. verify_invariants re-checks after EVERY processed
// event (submit, admit, completion, node failure, repair, preemption):
// allocations pairwise disjoint, device counts conserved (allocated +
// free + repairing == fleet), every admitted job memory-feasible, no
// queued job priority-inverted. A violation throws CheckError and fails
// the scenario.
TEST(ClusterFuzz, InvariantsHoldAcrossSeededTraffic) {
  int completed_total = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const AllocationPolicy policy =
        seed % 2 == 0 ? AllocationPolicy::kDynamic : AllocationPolicy::kStaticEqual;
    ClusterServiceOptions options = FastOptions(policy);
    options.verify_invariants = true;
    const Seconds load[] = {40, 200, 1200};
    const int failures = static_cast<int>(seed % 4);
    ClusterService service(SmallFleet(), options);
    const std::vector<JobRequest> requests =
        GenerateTraffic(FuzzTraffic(seed + 1, 5, load[seed % 3]));
    const ClusterMetrics m = RunTraffic(service, requests, failures, seed * 13 + 1);

    // Post-run: every job reached a terminal state and the books close.
    for (const JobRecord& job : service.jobs()) {
      EXPECT_TRUE(job.state == JobState::kReclaimed) << "job " << job.job_id
          << " ended " << JobStateName(job.state);
      EXPECT_TRUE(job.alloc.empty());
    }
    EXPECT_EQ(m.submitted, 5);
    EXPECT_LE(m.completed + m.failed + m.rejected, m.submitted);
    EXPECT_GE(m.plan_calls, m.plan_cache_hits);
    EXPECT_GE(m.goodput, 0.0);
    EXPECT_LE(m.goodput, 1.0 + 1e-9);
    completed_total += m.completed;

    // The event log of every scenario validates (and is therefore
    // reproducible byte-for-byte).
    EXPECT_TRUE(ValidateEventLog(FormatEventLog(service.fleet(), service.events())));
  }
  // The fuzz must exercise real work, not 100 empty runs.
  EXPECT_GT(completed_total, 200);
}

// ---- Differential single-job contract --------------------------------------

// A one-job cluster on a single-tier carve must produce exactly the
// plan, priced iteration time, and (untagged) schedule that calling
// SearchBestStrategy directly produces — bit-identical, not just close.
TEST(ClusterDifferential, SingleTierJobMatchesSearchBestStrategy) {
  ClusterServiceOptions options = FastOptions(AllocationPolicy::kDynamic);
  ClusterService service(SmallFleet(), options);

  JobRequest request;
  request.config = model::Llama7B();
  request.method = Method::kSvpp;
  request.global_batch = 8;
  request.min_nodes = 2;
  request.max_nodes = 2;
  request.preferred_tier = 0;
  const int id = service.Submit(request);
  const JobRecord& job = service.job(id);
  ASSERT_TRUE(job.plan.feasible);
  EXPECT_FALSE(job.plan.fleet_path);

  // The same search, by hand, on the same carve with the same knobs.
  const hw::ClusterTopology carve = service.CarveFor(job.alloc);
  ASSERT_EQ(carve.num_tiers(), 1);
  SurrogateCache cache;
  PlannerOptions popts = options.planner;
  popts.cache = &cache;
  popts.iteration.keep_schedule = true;
  popts.iteration.keep_timeline = false;
  const PlannerResult direct = SearchBestStrategy(
      request.method, request.config, carve.tier(0).spec(), request.global_batch, popts);
  ASSERT_TRUE(direct.best.has_value());

  EXPECT_EQ(job.plan.strategy.ToString(), direct.best->strategy.ToString());
  EXPECT_EQ(job.plan.iteration_time, direct.best->iteration_time);  // bitwise
  EXPECT_EQ(job.plan.peak_memory, direct.best->peak_memory);
  // Planned on the carve itself: every stage on its one tier, rented at
  // the tier's rate.
  EXPECT_EQ(job.plan.placement.ToString(),
            hw::StagePlacement::Uniform(job.plan.strategy.pp, 0).ToString());
  EXPECT_EQ(job.plan.usd_per_iteration,
            PriceDollarCost(carve, {job.plan.strategy, job.plan.placement},
                            job.plan.iteration_time, 0)
                .usd_per_iteration);

  // The stored schedule is the direct winner's, untagged.
  ASSERT_NE(job.plan.schedule_text, nullptr);
  EXPECT_EQ(*job.plan.schedule_text, sched::SerializeSchedule(direct.best->schedule));
  service.Drain();
  EXPECT_EQ(service.Metrics().completed, 1);
}

// A job forced to span both tiers must match SearchBestFleetStrategy on
// the spanning carve.
TEST(ClusterDifferential, CrossTierJobMatchesSearchBestFleetStrategy) {
  ClusterServiceOptions options = FastOptions(AllocationPolicy::kDynamic);
  ClusterService service(SmallFleet(), options);

  JobRequest request;
  request.config = model::Llama7B();
  request.method = Method::kSvpp;
  request.global_batch = 8;
  request.min_nodes = 5;  // > tier0's 4 nodes: must span tiers
  request.max_nodes = 5;
  const int id = service.Submit(request);
  const JobRecord& job = service.job(id);
  ASSERT_TRUE(job.plan.feasible);
  EXPECT_TRUE(job.plan.fleet_path);
  ASSERT_EQ(job.alloc.slices.size(), 2u);

  const hw::ClusterTopology carve = service.CarveFor(job.alloc);
  ASSERT_EQ(carve.num_tiers(), 2);
  SurrogateCache cache;
  PlannerOptions popts = options.planner;
  popts.cache = &cache;
  popts.iteration.keep_schedule = true;
  popts.iteration.keep_timeline = false;
  const FleetPlannerResult direct = SearchBestFleetStrategy(
      request.method, request.config, carve, request.global_batch, popts);
  ASSERT_TRUE(direct.best.has_value());

  EXPECT_EQ(job.plan.strategy.ToString(), direct.best->placed.strategy.ToString());
  EXPECT_EQ(job.plan.placement.ToString(), direct.best->placed.placement.ToString());
  EXPECT_EQ(job.plan.iteration_time, direct.best->result.iteration_time);  // bitwise
  EXPECT_EQ(job.plan.peak_memory, direct.best->result.peak_memory);
  EXPECT_EQ(job.plan.usd_per_iteration, direct.best->dollars.usd_per_iteration);

  ASSERT_NE(job.plan.schedule_text, nullptr);
  EXPECT_EQ(*job.plan.schedule_text, sched::SerializeSchedule(direct.best->result.schedule));
}

// ---- Carve-fingerprint plan-memo regression --------------------------------

// Equal-node carves from different tiers must key different plan-memo
// entries (the TopologyFingerprint of the carved sub-fleet is part of
// the key); a repeat carve of the same shape must hit the memo.
TEST(ClusterPlanMemo, CarveFingerprintKeysDistinguishTiers) {
  const hw::ClusterTopology fleet = SmallFleet();
  IterationOptions iopts;
  const auto carve0 = hw::CarveSubTopology(fleet, {{0, 1}});
  const auto carve1 = hw::CarveSubTopology(fleet, {{1, 1}});
  const auto config = model::Llama7B();
  EXPECT_NE(TopologyFingerprint(config, carve0, iopts),
            TopologyFingerprint(config, carve1, iopts));
  // Different shape of the same tier also digests differently.
  const auto carve0b = hw::CarveSubTopology(fleet, {{0, 2}});
  EXPECT_NE(TopologyFingerprint(config, carve0, iopts),
            TopologyFingerprint(config, carve0b, iopts));

  ClusterService service(SmallFleet(), FastOptions(AllocationPolicy::kDynamic));
  JobRequest on_cheap;
  on_cheap.config = config;
  on_cheap.global_batch = 8;
  on_cheap.min_nodes = 1;
  on_cheap.max_nodes = 1;
  on_cheap.preferred_tier = 0;
  JobRequest on_premium = on_cheap;
  on_premium.preferred_tier = 1;
  const int a = service.Submit(on_cheap);
  const int b = service.Submit(on_premium);
  // No collision: the premium job was planned fresh, not served the
  // cheap tier's plan.
  EXPECT_EQ(service.Metrics().plan_cache_hits, 0);
  EXPECT_NE(service.job(a).plan.iteration_time, service.job(b).plan.iteration_time);

  // Same carve shape again: memo hit, identical plan.
  const int c = service.Submit(on_cheap);
  EXPECT_EQ(service.Metrics().plan_cache_hits, 1);
  EXPECT_TRUE(service.job(c).plan.from_plan_cache);
  EXPECT_EQ(service.job(c).plan.iteration_time, service.job(a).plan.iteration_time);
  EXPECT_EQ(service.job(c).plan.strategy.ToString(),
            service.job(a).plan.strategy.ToString());
}

// ---- Golden admission timeline ---------------------------------------------

// Fixed 8-job two-tier scenario with two injected failures: the full
// event log is pinned byte-for-byte. Regenerate (only with an
// intentional behavior change) as tests/golden/README.md describes.
std::string GoldenScenarioLog() {
  ClusterService service(SmallFleet(), FastOptions(AllocationPolicy::kDynamic));
  const std::vector<JobRequest> requests = GenerateTraffic(FuzzTraffic(5, 8, 120));
  RunTraffic(service, requests, /*failures=*/2, /*failure_seed=*/11);
  return FormatEventLog(service.fleet(), service.events());
}

TEST(ClusterGolden, AdmissionTimelineIsByteStable) {
  const std::string log = GoldenScenarioLog();
  ASSERT_TRUE(ValidateEventLog(log));
  ExpectMatchesGolden("cluster_admission_timeline.txt", log);
}

TEST(ClusterGolden, CorruptedLogsAreDetected) {
  const std::string log = GoldenScenarioLog();
  ASSERT_TRUE(ValidateEventLog(log));

  // Flip one byte in the body.
  std::string flipped = log;
  flipped[log.size() / 2] ^= 1;
  EXPECT_FALSE(ValidateEventLog(flipped));

  // Drop one event line.
  const std::size_t first_nl = log.find('\n', log.find("admit"));
  ASSERT_NE(first_nl, std::string::npos);
  std::string dropped = log;
  const std::size_t line_begin = dropped.rfind('\n', first_nl - 1);
  dropped.erase(line_begin, first_nl - line_begin);
  EXPECT_FALSE(ValidateEventLog(dropped));

  // Truncation, header damage, checksum damage.
  EXPECT_FALSE(ValidateEventLog(log.substr(0, log.size() - 2)));
  EXPECT_FALSE(ValidateEventLog("mepipe-cluster-events v2\n" + log));
  std::string bad_sum = log;
  bad_sum[log.size() - 2] = bad_sum[log.size() - 2] == '0' ? '1' : '0';
  EXPECT_FALSE(ValidateEventLog(bad_sum));
}

// ---- Job-tag threading -----------------------------------------------------

TEST(JobTag, StampsScheduleAndEveryOp) {
  sched::Schedule schedule = sched::OneFOneBSchedule(4, 8);
  EXPECT_EQ(schedule.job, 0);
  sched::TagJob(schedule, 7);
  EXPECT_EQ(schedule.job, 7);
  for (const auto& ops : schedule.stage_ops) {
    for (const sched::OpId& op : ops) {
      EXPECT_EQ(op.job, 7);
    }
  }
  sched::ValidateSchedule(schedule);  // tagged schedules stay valid
}

TEST(JobTag, TaggedScheduleSimulatesIdenticallyAndSpansCarryTag) {
  const sched::Schedule plain = sched::OneFOneBSchedule(4, 6);
  sched::Schedule tagged = plain;
  sched::TagJob(tagged, 3);

  const sim::UniformCostModel costs(1.0, 2.0, 0.5, 0.1, /*act_bytes=*/10);
  const sim::SimResult base = sim::Simulate(plain, costs);
  const sim::SimResult job = sim::Simulate(tagged, costs);
  EXPECT_EQ(base.makespan, job.makespan);
  EXPECT_EQ(base.peak_activation, job.peak_activation);
  ASSERT_EQ(base.timeline.size(), job.timeline.size());
  for (std::size_t i = 0; i < base.timeline.size(); ++i) {
    EXPECT_EQ(base.timeline[i].op.job, 0);
    EXPECT_EQ(job.timeline[i].op.job, 3);  // every span, transfers included
    EXPECT_EQ(base.timeline[i].start, job.timeline[i].start);
    EXPECT_EQ(base.timeline[i].end, job.timeline[i].end);
  }
}

TEST(JobTag, SerializationRoundTripsAndUntaggedFormatIsUnchanged) {
  const sched::Schedule plain = sched::OneFOneBSchedule(2, 3);
  const std::string untagged_text = sched::SerializeSchedule(plain);
  EXPECT_EQ(untagged_text.find("job "), std::string::npos);

  sched::Schedule tagged = plain;
  sched::TagJob(tagged, 12);
  const std::string tagged_text = sched::SerializeSchedule(tagged);
  EXPECT_NE(tagged_text.find("\njob 12\n"), std::string::npos);

  const sched::Schedule parsed = sched::ParseSchedule(tagged_text);
  EXPECT_EQ(parsed.job, 12);
  for (const auto& ops : parsed.stage_ops) {
    for (const sched::OpId& op : ops) {
      EXPECT_EQ(op.job, 12);
    }
  }
  EXPECT_EQ(sched::SerializeSchedule(parsed), tagged_text);

  // Parsing the untagged text still yields job 0 everywhere.
  const sched::Schedule plain_parsed = sched::ParseSchedule(untagged_text);
  EXPECT_EQ(plain_parsed.job, 0);
}

// Two jobs served by one memoized plan share its schedule text, stored
// once and untagged; a multi-job timeline tags a copy with the job id.
TEST(JobTag, MemoizedPlanSharesOneUntaggedScheduleText) {
  ClusterService service(SmallFleet(), FastOptions(AllocationPolicy::kDynamic));
  JobRequest request;
  request.config = model::Llama7B();
  request.global_batch = 8;
  request.min_nodes = 1;
  request.max_nodes = 1;
  request.preferred_tier = 0;
  const int a = service.Submit(request);
  const int b = service.Submit(request);
  const JobPlan& first = service.job(a).plan;
  const JobPlan& second = service.job(b).plan;
  ASSERT_TRUE(first.feasible);
  ASSERT_TRUE(second.from_plan_cache);
  ASSERT_NE(first.schedule_text, nullptr);
  EXPECT_EQ(first.schedule_text, second.schedule_text);
  EXPECT_EQ(sched::ParseSchedule(*first.schedule_text).job, 0);
}

// Multi-job Chrome-trace export: one process group per job, spans named
// with the job tag.
TEST(JobTag, MultiJobTraceInterleavesByJobId) {
  const sched::Schedule plain = sched::OneFOneBSchedule(2, 2);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.0);

  trace::JobTimeline a;
  a.job_id = 1;
  a.name = "jobA";
  a.offset = 0;
  a.result = sim::Simulate(plain, costs);

  sched::Schedule tagged = plain;
  sched::TagJob(tagged, 2);
  trace::JobTimeline b;
  b.job_id = 2;
  b.name = "jobB";
  b.offset = 5.0;
  b.result = sim::Simulate(tagged, costs);

  const std::string json = trace::ToChromeTraceJson({a, b});
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("jobA"), std::string::npos);
  EXPECT_NE(json.find("j=2"), std::string::npos);  // tagged op names
  EXPECT_EQ(json.find("j=1"), std::string::npos);  // untagged job stays clean
}

// ---- Service edge cases ----------------------------------------------------

TEST(ClusterService, RejectsStructurallyImpossibleDemand) {
  ClusterService service(SmallFleet(), FastOptions(AllocationPolicy::kDynamic));
  JobRequest request;
  request.config = model::Llama7B();
  request.min_nodes = 7;  // fleet has 6 nodes total
  request.max_nodes = 7;
  const int id = service.Submit(request);
  EXPECT_EQ(service.job(id).state, JobState::kReclaimed);
  EXPECT_EQ(service.Metrics().rejected, 1);
}

TEST(ClusterService, StaticPolicyNeverShrinksOrPreempts) {
  ClusterServiceOptions options = FastOptions(AllocationPolicy::kStaticEqual);
  options.verify_invariants = true;
  ClusterService service(SmallFleet(), options);
  const std::vector<JobRequest> requests = GenerateTraffic(FuzzTraffic(3, 6, 60));
  const ClusterMetrics m = RunTraffic(service, requests, /*failures=*/3, 29);
  EXPECT_EQ(m.preemptions, 0);
  EXPECT_EQ(m.shrinks, 0);
  EXPECT_EQ(m.expands, 0);
}

TEST(ClusterService, NodeFailureShrinksOrRequeuesUnderDynamicPolicy) {
  ClusterServiceOptions options = FastOptions(AllocationPolicy::kDynamic);
  options.verify_invariants = true;
  ClusterService service(SmallFleet(), options);
  JobRequest request;
  request.config = model::Llama7B();
  request.global_batch = 8;
  request.min_nodes = 1;
  request.max_nodes = 2;
  request.iterations = 1000;
  const int id = service.Submit(request);
  ASSERT_EQ(service.job(id).state, JobState::kAdmitted);
  const int tier = service.job(id).alloc.slices[0].tier;
  const int node = service.job(id).alloc.node_ids[0][0];
  service.OnNodeFailure(10.0, tier, node);
  const JobRecord& job = service.job(id);
  // Held 2 nodes, min 1: the survivor re-plans and keeps running. (The
  // admission loop may immediately re-expand it into remaining free
  // capacity, so the post-failure size is [min, max], not exactly 1.)
  EXPECT_EQ(job.shrink_count, 1);
  EXPECT_TRUE(job.state == JobState::kAdmitted || job.state == JobState::kRunning);
  EXPECT_GE(job.alloc.nodes(), 1);
  EXPECT_LE(job.alloc.nodes(), 2);
  service.Drain();
  EXPECT_EQ(service.Metrics().completed, 1);
}

}  // namespace
}  // namespace mepipe::core
