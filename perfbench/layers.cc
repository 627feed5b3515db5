// The traced run's layer replay. After a planner query returns, a sample
// of the candidates it priced or simulated is run again through the
// public entry point of each layer, one child span per call:
//
//   cache.lookup     CostModelFingerprint/TopologyFingerprint + SurrogateCache::Lookup
//   build            core::BuildCandidate (schedule generators in sched/)
//   cost_model       core::TrainingCostModel constructor
//   table            core::PriceScheduleTable
//   surrogate        core::SurrogatePrice, uncached
//   engine           sim::Simulate
//   simulate         core::SimulateIteration, keep_timeline = false
//   resim            the winner's re-sim, keep_timeline = true
//   interval         core::OptimalCheckpointInterval (goodput queries)
//   fleet.surrogate  core::SurrogatePricePlaced, uncached
//   fleet.simulate   core::SimulatePlacedIteration
//
// The replay runs serially after the query, so it never perturbs the
// query's own span.
#include <algorithm>
#include <numeric>

#include "core/cluster.h"
#include "core/fleet.h"
#include "core/resilience.h"
#include "workloads.h"

namespace perfbench {

namespace core = mepipe::core;
namespace hw = mepipe::hw;
namespace model = mepipe::model;
namespace sched = mepipe::sched;
namespace sim = mepipe::sim;

namespace {

// Ops the engine executes for `schedule`: the program orders plus the
// deferred weight-gradient ops the engine slots in dynamically.
long OpCount(const sched::Schedule& schedule) {
  long ops = 0;
  for (const auto& stage : schedule.stage_ops) {
    ops += static_cast<long>(stage.size());
    if (schedule.deferred_wgrad) {
      ops += std::count_if(stage.begin(), stage.end(), [](const sched::OpId& op) {
        return op.kind == sched::OpKind::kBackward;
      });
    }
  }
  return ops;
}

// Up to `cap` entries of `indices`, evenly strided.
std::vector<std::size_t> Stride(const std::vector<std::size_t>& indices, std::size_t cap) {
  if (indices.size() <= cap) {
    return indices;
  }
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < cap; ++k) {
    out.push_back(indices[k * indices.size() / cap]);
  }
  return out;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

// Keys of one service's jobs and plans: each service plans on its own.
std::string ServiceKey(const core::ClusterService& service) {
  return std::to_string(reinterpret_cast<std::uintptr_t>(&service)) + "/";
}

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

}  // namespace

struct Tracer::Candidate {
  const model::TransformerConfig* config = nullptr;
  core::Strategy strategy;
  int global_batch = 0;
  core::IterationOptions iteration;  // keep_timeline = false
  const hw::ClusterSpec* cluster = nullptr;       // homogeneous path
  const hw::ClusterTopology* topology = nullptr;  // fleet path
  hw::StagePlacement placement;
  core::SurrogateCache* cache = nullptr;  // replay the lookup against it
  const core::PlannerOptions* planner = nullptr;
  bool price = false;     // the planner surrogate-priced it
  bool simulate = false;  // the planner ran the DES on it
  bool resim = false;     // it won; the planner re-simulated it
};

Tracer::Tracer(bool smoke) : price_cap_(smoke ? 2 : 12), sim_cap_(smoke ? 1 : 8) {}

Tracer::Cost Tracer::ReplayCandidate(int parent, int query, const Candidate& c) {
  Cost cost;
  SpanRecorder& rec = recorder_;
  const auto timed = [&](const char* name, auto&& fn) {
    const int id = rec.Begin(name, parent, query);
    fn();
    rec.End(id);
    const Span& span = rec.spans()[static_cast<std::size_t>(id)];
    return span.end - span.start;
  };
  core::IterationOptions with_timeline = c.iteration;
  with_timeline.keep_timeline = true;

  if (c.topology != nullptr) {
    const core::PlacedStrategy placed{c.strategy, c.placement};
    if (c.price) {
      if (c.cache != nullptr) {
        timed("cache.lookup", [&] {
          core::SurrogateKey key{c.strategy.method, c.strategy.pp, c.strategy.dp,
                                 c.strategy.cp,     c.strategy.tp, c.strategy.vp,
                                 c.strategy.spp,    c.strategy.recompute, c.global_batch,
                                 core::TopologyFingerprint(*c.config, *c.topology, c.iteration),
                                 c.placement.Hash()};
          return c.cache->Lookup(key).has_value();
        });
      }
      core::SurrogateOptions options;
      options.iteration = c.iteration;
      cost.price_s = timed("fleet.surrogate", [&] {
        return core::SurrogatePricePlaced(*c.config, placed, *c.topology, c.global_batch,
                                          options);
      });
    }
    if (c.simulate) {
      cost.simulate_s = timed("fleet.simulate", [&] {
        return core::SimulatePlacedIteration(*c.config, placed, *c.topology, c.global_batch,
                                             c.iteration);
      });
    }
    if (c.resim) {
      cost.resim_s = timed("resim", [&] {
        return core::SimulatePlacedIteration(*c.config, placed, *c.topology, c.global_batch,
                                             with_timeline);
      });
    }
    return cost;
  }

  const hw::ClusterSpec& cluster = *c.cluster;
  if (c.price && c.cache != nullptr) {
    timed("cache.lookup", [&] {
      core::SurrogateKey key{c.strategy.method, c.strategy.pp, c.strategy.dp,
                             c.strategy.cp,     c.strategy.tp, c.strategy.vp,
                             c.strategy.spp,    c.strategy.recompute, c.global_batch,
                             core::CostModelFingerprint(*c.config, cluster, c.iteration), 0};
      return c.cache->Lookup(key).has_value();
    });
  }
  if (c.price || c.simulate) {
    const int build_span = rec.Begin("build", parent, query);
    const core::CandidateBuild build =
        core::BuildCandidate(*c.config, c.strategy, cluster, c.global_batch, c.iteration);
    rec.End(build_span, build.feasible ? OpCount(build.schedule) : 0);
    const Span& span = rec.spans()[static_cast<std::size_t>(build_span)];
    if (c.strategy.method == core::Method::kSynth) {
      synth_build_s_.push_back(span.end - span.start);
    }
    if (build.feasible) {
      timed("cost_model", [&] {
        return core::TrainingCostModel(*c.config, c.strategy, cluster, build.problem,
                                       c.iteration.cost)
            .MaxStaticMemory();
      });
      const long ops = OpCount(build.schedule);
      if (c.price) {
        core::TableOptions table;
        table.wgrad_mode = build.wgrad_mode;
        table.activation_budget = build.activation_budget;
        table.dp_overlap = c.iteration.dp_overlap;
        const int id = rec.Begin("table", parent, query);
        core::PriceScheduleTable(build.schedule, *build.costs, table);
        rec.End(id, ops);
      }
      if (c.simulate) {
        sim::EngineOptions engine;
        engine.wgrad_mode = build.wgrad_mode;
        engine.activation_budget = build.activation_budget;
        engine.dp_overlap = c.iteration.dp_overlap;
        engine.dp_link_shared =
            c.iteration.dp_overlap && hw::SingleTierTopology(cluster)
                                          .FabricShares(c.strategy.layout())
                                          .Shares(hw::Dim::kData, hw::Dim::kPipeline);
        const int id = rec.Begin("engine", parent, query);
        sim::Simulate(build.schedule, *build.costs, engine);
        rec.End(id, ops);
        if (build.wgrad_mode == sim::WgradMode::kFillGemms) {
          const Span& engine_span = rec.spans()[static_cast<std::size_t>(id)];
          fill_gemms_s_ += engine_span.end - engine_span.start;
          fill_gemms_ops_ += ops;
        }
      }
    }
  }
  if (c.price) {
    core::SurrogateOptions options;
    options.iteration = c.iteration;
    cost.price_s = timed("surrogate", [&] {
      return core::SurrogatePrice(*c.config, c.strategy, cluster, c.global_batch, options);
    });
  }
  if (c.simulate) {
    core::IterationResult result;
    cost.simulate_s = timed("simulate", [&] {
      result = core::SimulateIteration(*c.config, c.strategy, cluster, c.global_batch,
                                       c.iteration);
      return result.feasible;
    });
    if (result.feasible && c.planner != nullptr &&
        c.planner->objective == core::PlannerObjective::kGoodput) {
      core::ResilienceOptions res = c.planner->resilience;
      res.reliability.checkpoint_write_cost =
          core::CheckpointWriteCost(result.checkpoint_shard, c.planner->checkpoint_cost);
      res.dp_replicas = c.strategy.dp;
      cost.simulate_s += timed("interval", [&] {
        return core::OptimalCheckpointInterval(result.iteration_time, res,
                                               c.planner->interval_solver)
            .goodput;
      });
    }
  }
  if (c.resim) {
    cost.resim_s = timed("resim", [&] {
      return core::SimulateIteration(*c.config, c.strategy, cluster, c.global_batch,
                                     with_timeline)
          .feasible;
    });
  }
  return cost;
}

void Tracer::ReplayQuery(int span, const model::TransformerConfig& config,
                         const hw::ClusterSpec& cluster, int global_batch,
                         const core::PlannerOptions& options,
                         const core::PlannerResult& result, bool replay_layers) {
  ++queries_;
  winners_ += result.best ? 1 : 0;
  surrogate_priced_ += result.surrogate_priced;
  simulated_ += result.simulated;
  cache_hits_ += result.cache_hits;
  // Phase 2 ran on everything the surrogate did not skip; a two-phase
  // query that skipped nothing fell back to the exhaustive pass.
  std::vector<std::size_t> all;
  std::vector<std::size_t> simulated;
  for (std::size_t i = 0; i < result.evaluated.size(); ++i) {
    all.push_back(i);
    const std::string& note = result.evaluated[i].note;
    if (!StartsWith(note, "skipped") && !StartsWith(note, "surrogate:")) {
      simulated.push_back(i);
    }
  }
  const bool fallback = options.two_phase && simulated.size() == all.size() &&
                        all.size() > static_cast<std::size_t>(options.surrogate_top_k);
  fallback_queries_ += fallback ? 1 : 0;
  if (!replay_layers) {
    return;
  }
  replayed_query_s_ += Duration(span);

  Candidate base;
  base.config = &config;
  base.cluster = &cluster;
  base.global_batch = global_batch;
  base.iteration = options.iteration;
  base.iteration.keep_timeline = false;
  base.cache = options.cache;
  base.planner = &options;
  std::vector<Candidate> prices;
  if (options.two_phase) {
    for (const std::size_t i : Stride(all, price_cap_)) {
      prices.push_back(base);
      prices.back().strategy = result.evaluated[i].strategy;
      prices.back().price = true;
    }
  }
  std::vector<Candidate> runs;
  for (const std::size_t i : Stride(simulated, sim_cap_)) {
    runs.push_back(base);
    runs.back().strategy = result.evaluated[i].strategy;
    runs.back().simulate = true;
  }
  Candidate winner = base;
  if (result.best) {
    winner.strategy = result.best->strategy;
    winner.resim = true;
  }
  covered_s_ += ReplayCall(span, prices, runs, result.best ? &winner : nullptr,
                           result.surrogate_priced - result.cache_hits, result.simulated);
}

void Tracer::ReplayFleetQuery(int span, const model::TransformerConfig& config,
                              const hw::ClusterTopology& topology, int global_batch,
                              const core::PlannerOptions& options,
                              const core::FleetPlannerResult& result, bool replay_layers) {
  ++queries_;
  winners_ += result.best ? 1 : 0;
  surrogate_priced_ += result.surrogate_priced;
  simulated_ += result.simulated;
  cache_hits_ += result.cache_hits;
  invalid_placements_ += result.invalid_placements;
  // Re-derive phase 2's selection: the top-k surrogate-feasible
  // candidates by the objective's score, or everything on fallback.
  std::vector<std::pair<double, std::size_t>> ranked;
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < result.priced.size(); ++i) {
    all.push_back(i);
    const core::PlacedSurrogateResult& p = result.priced[i];
    if (p.result.feasible) {
      ranked.push_back({options.objective == core::PlannerObjective::kDollarCost
                            ? p.dollars.usd_per_iteration
                            : p.result.iteration_time,
                        i});
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::size_t> simulated;
  for (std::size_t r = 0; r < ranked.size() &&
                          r < static_cast<std::size_t>(std::max(1, options.surrogate_top_k));
       ++r) {
    simulated.push_back(ranked[r].second);
  }
  std::sort(simulated.begin(), simulated.end());
  if (ranked.empty()) {
    simulated = all;
    fallback_queries_ += result.priced.empty() ? 0 : 1;
  }
  if (!replay_layers) {
    return;
  }
  replayed_query_s_ += Duration(span);

  Candidate base;
  base.config = &config;
  base.topology = &topology;
  base.global_batch = global_batch;
  base.iteration = options.iteration;
  base.iteration.keep_timeline = false;
  base.cache = options.cache;
  base.planner = &options;
  const auto placed = [&](const core::PlacedStrategy& shape) {
    Candidate c = base;
    c.strategy = shape.strategy;
    c.placement = shape.placement;
    return c;
  };
  std::vector<Candidate> prices;
  for (const std::size_t i : Stride(all, price_cap_)) {
    prices.push_back(placed(result.priced[i].placed));
    prices.back().price = true;
  }
  std::vector<Candidate> runs;
  for (const std::size_t i : Stride(simulated, sim_cap_)) {
    runs.push_back(placed(result.priced[i].placed));
    runs.back().simulate = true;
  }
  Candidate winner = base;
  if (result.best) {
    winner = placed(result.best->placed);
    winner.resim = true;
  }
  covered_s_ += ReplayCall(span, prices, runs, result.best ? &winner : nullptr,
                           result.surrogate_priced - result.cache_hits, result.simulated);
}

void Tracer::ObserveService(int span, core::ClusterService& service,
                            const core::ClusterServiceOptions& options) {
  replayed_query_s_ += Duration(span);
  for (const core::JobRecord& job : service.jobs()) {
    if (job.state != core::JobState::kRunning || !job.plan.feasible ||
        !seen_segments_.insert(ServiceKey(service) + std::to_string(job.job_id) + "@" +
                               std::to_string(job.segment_start))
             .second) {
      continue;
    }
    const hw::ClusterTopology carve = service.CarveFor(job.alloc);
    const std::string plan_key =
        ServiceKey(service) + core::ToString(job.request.method) + "/" +
        std::to_string(job.request.global_batch) + "/" +
        std::to_string(core::TopologyFingerprint(job.request.config, carve,
                                                 options.planner.iteration));
    if (!seen_plans_.insert(plan_key).second) {
      continue;  // served from the service's plan memo
    }
    // A plan the service computed: count it like a planner query and
    // replay its winner through every layer.
    ++queries_;
    ++winners_;
    surrogate_priced_ += job.plan.surrogate_priced;
    simulated_ += job.plan.simulated;
    cache_hits_ += job.plan.cache_hits;
    Candidate c;
    c.config = &job.request.config;
    c.strategy = job.plan.strategy;
    c.global_batch = job.request.global_batch;
    c.iteration = options.planner.iteration;
    c.iteration.keep_timeline = false;
    c.cache = &service.cache();
    c.planner = &options.planner;
    hw::ClusterSpec cluster;
    if (job.plan.fleet_path) {
      c.topology = &carve;
      c.placement = job.plan.placement;
    } else {
      cluster = carve.tiers.front().spec();
      c.cluster = &cluster;
    }
    Candidate price = c;
    price.price = true;
    Candidate run = c;
    run.simulate = true;
    c.resim = true;
    covered_s_ += ReplayCall(span, {price}, {run}, &c,
                             job.plan.surrogate_priced - job.plan.cache_hits, job.plan.simulated);
  }
}

double Tracer::ReplayCall(int span, const std::vector<Candidate>& prices,
                          const std::vector<Candidate>& runs, const Candidate* winner,
                          long uncached_prices, long des_runs) {
  std::vector<double> price_s;
  for (const Candidate& c : prices) {
    price_s.push_back(ReplayCandidate(span, span, c).price_s);
  }
  std::vector<double> simulate_s;
  for (const Candidate& c : runs) {
    simulate_s.push_back(ReplayCandidate(span, span, c).simulate_s);
  }
  const double resim = winner != nullptr ? ReplayCandidate(span, span, *winner).resim_s : 0;
  resim_s_ += resim;
  return static_cast<double>(uncached_prices) * Mean(price_s) +
         static_cast<double>(des_runs) * Mean(simulate_s) + resim;
}

void Tracer::RecordCache(const core::SurrogateCache::Stats& stats) {
  interval_lookups_ += stats.interval_hits + stats.interval_misses;
  interval_hits_ += stats.interval_hits;
}

void Tracer::RecordService(core::ClusterService& service) {
  const core::ClusterMetrics metrics = service.Metrics();
  const core::SurrogateCache::Stats stats = service.cache().stats();
  service_plan_calls_ += metrics.plan_calls;
  service_memo_hits_ += metrics.plan_cache_hits;
  service_cache_hits_ += stats.hits;
  service_cache_lookups_ += stats.hits + stats.misses;
  service_events_ += static_cast<long>(service.events().size());
  RecordCache(stats);
}

void Tracer::RecordServiceCalls(double drain_s, const std::vector<double>& call_ms) {
  service_drain_s_ += drain_s;
  service_call_ms_.insert(service_call_ms_.end(), call_ms.begin(), call_ms.end());
}

MetricMap Tracer::Metrics(double untraced_wall_s, double traced_wall_s) const {
  const std::map<std::string, LayerSummary> layers = recorder_.Summarize();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerSummary{} : it->second;
  };
  const auto us = [&](const char* name, double q) {
    return Quantile(layer(name).durations, q) * 1e6;
  };
  const auto ns_per_op = [&](const char* name) {
    const LayerSummary l = layer(name);
    return l.ops > 0 ? l.total_s / static_cast<double>(l.ops) * 1e9 : 0;
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const core::PlanningLatencyModel latency;

  MetricMap m;
  m["build.calls"] = {static_cast<double>(layer("build").calls), "count"};
  m["build.us_p50"] = {us("build", 0.5), "us"};
  m["build.us_p90"] = {us("build", 0.9), "us"};
  m["build.ns_per_op"] = {ns_per_op("build"), "ns/op"};
  m["build.synth.us_p50"] = {Median(synth_build_s_) * 1e6, "us"};
  m["cost_model.us_p50"] = {us("cost_model", 0.5), "us"};
  m["table.us_p50"] = {us("table", 0.5), "us"};
  m["table.ns_per_op"] = {ns_per_op("table"), "ns/op"};
  m["surrogate.us_p50"] = {us("surrogate", 0.5), "us"};
  m["cache.lookup_ns_p50"] = {us("cache.lookup", 0.5) * 1e3, "ns"};
  m["cache.hit_ratio"] = {service_cache_lookups_ > 0
                              ? ratio(service_cache_hits_, service_cache_lookups_)
                              : ratio(cache_hits_, surrogate_priced_),
                          "ratio"};
  m["interval.us_p50"] = {us("interval", 0.5), "us"};
  m["interval.hit_ratio"] = {ratio(interval_hits_, interval_lookups_), "ratio"};
  m["engine.us_p50"] = {us("engine", 0.5), "us"};
  m["engine.us_p90"] = {us("engine", 0.9), "us"};
  m["engine.ns_per_op"] = {ns_per_op("engine"), "ns/op"};
  m["engine.fill_gemms.ns_per_op"] = {
      fill_gemms_ops_ > 0 ? fill_gemms_s_ / static_cast<double>(fill_gemms_ops_) * 1e9 : 0,
      "ns/op"};
  m["simulate.us_p50"] = {us("simulate", 0.5), "us"};
  m["resim.us_p50"] = {us("resim", 0.5), "us"};
  m["resim.share"] = {ratio(resim_s_, replayed_query_s_), "ratio"};
  m["planner.queries"] = {static_cast<double>(queries_), "count"};
  m["planner.surrogate_priced"] = {static_cast<double>(surrogate_priced_), "count"};
  m["planner.simulated"] = {static_cast<double>(simulated_), "count"};
  m["planner.cache_hits"] = {static_cast<double>(cache_hits_), "count"};
  m["planner.fallback_queries"] = {static_cast<double>(fallback_queries_), "count"};
  m["planner.des_per_winner"] = {ratio(simulated_, winners_), "ratio"};
  m["fleet.surrogate.us_p50"] = {us("fleet.surrogate", 0.5), "us"};
  m["fleet.simulate.us_p50"] = {us("fleet.simulate", 0.5), "us"};
  m["fleet.invalid_placements"] = {static_cast<double>(invalid_placements_), "count"};
  m["service.plan_calls"] = {static_cast<double>(service_plan_calls_), "count"};
  m["service.memo_hit_ratio"] = {ratio(service_memo_hits_, service_plan_calls_), "ratio"};
  m["service.cache_hit_ratio"] = {ratio(service_cache_hits_, service_cache_lookups_), "ratio"};
  m["service.events"] = {static_cast<double>(service_events_), "count"};
  m["service.drain_s"] = {service_drain_s_, "s"};
  m["service.call_us_p50"] = {Quantile(service_call_ms_, 0.5) * 1e3, "us"};
  m["service.call_us_p90"] = {Quantile(service_call_ms_, 0.9) * 1e3, "us"};
  m["latency_model.surrogate_ratio"] = {
      ratio(us("surrogate", 0.5), latency.per_surrogate * 1e6), "ratio"};
  m["latency_model.simulation_ratio"] = {
      ratio(us("simulate", 0.5), latency.per_simulation * 1e6), "ratio"};
  m["trace.overhead_pct"] = {(ratio(traced_wall_s, untraced_wall_s) - 1) * 100, "%"};
  m["trace.coverage_pct"] = {ratio(covered_s_, replayed_query_s_) * 100, "%"};
  return m;
}

}  // namespace perfbench
