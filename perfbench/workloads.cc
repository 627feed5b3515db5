#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "hw/cluster.h"
#include "model/transformer.h"

namespace perfbench {

namespace core = mepipe::core;
namespace hw = mepipe::hw;
namespace model = mepipe::model;
using core::Method;
using core::PlannerObjective;

std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Seeded choices over a splitmix64 stream.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  int Below(int n) { return static_cast<int>(rng_.NextU64() % static_cast<std::uint64_t>(n)); }
  template <class T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<std::size_t>(Below(static_cast<int>(i)))]);
    }
  }
  mepipe::SplitMixRng& rng() { return rng_; }

 private:
  mepipe::SplitMixRng rng_;
};

// The fleets every workload draws from: the paper's two testbeds and
// their two-tier union (bench_cluster_service's fleet).
hw::ClusterTopology TwoTierFleet() {
  hw::ClusterTopology fleet;
  fleet.tiers = {hw::Rtx4090Tier(), hw::A100Tier()};
  fleet.SetLinkBetween(0, 1, hw::LanLink(hw::Rtx4090Cluster().inter_node));
  return fleet;
}

// ---- planner queries ---------------------------------------------------

enum class Target { kRtx4090, kA100, kFleet };

struct Query {
  Method method = Method::kSvpp;
  std::string model;
  int global_batch = 0;
  Target target = Target::kRtx4090;
  core::PlannerOptions options;

  std::string Label() const {
    static const char* kTargets[] = {"rtx4090", "a100", "fleet"};
    const char* objective = options.objective == PlannerObjective::kGoodput      ? "goodput"
                            : options.objective == PlannerObjective::kDollarCost ? "dollar"
                                                                                 : "time";
    return std::string(core::ToString(method)) + "/" + model + "/gbs" +
           std::to_string(global_batch) + "/" + kTargets[static_cast<int>(target)] + "/" +
           objective + (options.iteration.dp_overlap ? "/overlap" : "");
  }
};

// The winner of one query, as the digest and the output checks see it.
struct Winner {
  bool error = false;
  bool found = false;
  std::string text;           // strategy (+ placement), or the error
  double iteration_time = 0;  // of the winner
  double score = 0;           // what the objective ranked on
  long candidates = 0;        // surrogate-priced + simulated
  core::Strategy strategy;    // winning shape, for the re-sim check
  hw::StagePlacement placement;  // fleet queries only
};

struct Fixtures {
  std::map<std::string, model::TransformerConfig> models;
  hw::ClusterSpec rtx4090 = hw::Rtx4090Cluster();
  hw::ClusterSpec a100 = hw::A100Cluster();
  hw::ClusterTopology fleet = TwoTierFleet();

  Fixtures() {
    for (const char* size : {"7B", "13B", "34B"}) {
      models.emplace(size, model::LlamaBySize(size));
    }
  }
  const hw::ClusterSpec& cluster(Target target) const {
    return target == Target::kA100 ? a100 : rtx4090;
  }
};

// Runs `query` with `options` (the query's own options plus the shared
// cache / thread count) and hands the raw result to `tracer` when set.
Winner Execute(const Query& query, const core::PlannerOptions& options,
               const Fixtures& fixtures, Tracer* tracer, int span, bool replay_layers) {
  Winner winner;
  const model::TransformerConfig& config = fixtures.models.at(query.model);
  try {
    if (query.target == Target::kFleet) {
      const core::FleetPlannerResult result = core::SearchBestFleetStrategy(
          query.method, config, fixtures.fleet, query.global_batch, options);
      if (span >= 0) {
        tracer->recorder().End(span);
        tracer->ReplayFleetQuery(span, config, fixtures.fleet, query.global_batch, options,
                                 result, replay_layers);
      }
      winner.candidates = result.surrogate_priced + result.simulated;
      if (result.best) {
        winner.found = true;
        winner.text = result.best->placed.ToString();
        winner.strategy = result.best->placed.strategy;
        winner.placement = result.best->placed.placement;
        winner.iteration_time = result.best->result.iteration_time;
        winner.score = options.objective == PlannerObjective::kDollarCost
                           ? result.best->dollars.usd_per_iteration
                           : winner.iteration_time;
      }
    } else {
      const hw::ClusterSpec& cluster = fixtures.cluster(query.target);
      const core::PlannerResult result =
          core::SearchBestStrategy(query.method, config, cluster, query.global_batch, options);
      if (span >= 0) {
        tracer->recorder().End(span);
        tracer->ReplayQuery(span, config, cluster, query.global_batch, options, result,
                            replay_layers);
      }
      winner.candidates = result.surrogate_priced + result.simulated;
      if (result.best) {
        winner.found = true;
        winner.text = result.best->strategy.ToString();
        winner.strategy = result.best->strategy;
        winner.iteration_time = result.best->iteration_time;
        winner.score = options.objective == PlannerObjective::kGoodput
                           ? result.best->goodput.effective_iteration_time
                           : winner.iteration_time;
      }
    }
  } catch (const mepipe::CheckError& err) {
    if (span >= 0 && tracer->recorder().spans()[static_cast<std::size_t>(span)].end == 0) {
      tracer->recorder().End(span);
    }
    winner.error = true;
    winner.text = err.what();
  }
  return winner;
}

std::string DigestLine(const Query& query, const Winner& winner) {
  char bits[64];
  std::snprintf(bits, sizeof(bits), "%016llx %016llx",
                static_cast<unsigned long long>(Bits(winner.iteration_time)),
                static_cast<unsigned long long>(Bits(winner.score)));
  return query.Label() + " -> " + (winner.found ? winner.text : "none") + " " + bits + "\n";
}

class PlannerWorkload : public Workload {
 public:
  PlannerWorkload(std::string name, std::vector<Query> queries, std::vector<Query> warmup,
                  std::vector<std::size_t> parity_sample)
      : name_(std::move(name)),
        queries_(std::move(queries)),
        warmup_(std::move(warmup)),
        parity_sample_(std::move(parity_sample)) {}

  std::string Describe() const override {
    std::map<std::string, int> by_method;
    int fleet = 0;
    int goodput = 0;
    int overlap = 0;
    for (const Query& q : queries_) {
      ++by_method[core::ToString(q.method)];
      fleet += q.target == Target::kFleet ? 1 : 0;
      goodput += q.options.objective == PlannerObjective::kGoodput ? 1 : 0;
      overlap += q.options.iteration.dp_overlap ? 1 : 0;
    }
    std::string methods;
    for (const auto& [method, count] : by_method) {
      methods += (methods.empty() ? "" : ",") + method + "=" + std::to_string(count);
    }
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const Query& q : queries_) {
      digest = Fnv1a(q.Label() + "\n", digest);
    }
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s: %zu queries (%d fleet, %d goodput, %d dp_overlap; %s), "
                  "two_phase=%d threads=%d top_k=%d, list digest %016llx",
                  name_.c_str(), queries_.size(), fleet, goodput, overlap, methods.c_str(),
                  queries_.empty() ? 0 : queries_.front().options.two_phase ? 1 : 0,
                  queries_.empty() ? 0 : queries_.front().options.threads,
                  queries_.empty() ? 0 : queries_.front().options.surrogate_top_k,
                  static_cast<unsigned long long>(digest));
    return line;
  }

  void WarmUp() override {
    core::SurrogateCache cache;
    for (const Query& query : warmup_) {
      core::PlannerOptions options = query.options;
      options.cache = &cache;
      const Winner winner = Execute(query, options, fixtures_, nullptr, -1, false);
      MEPIPE_CHECK(!winner.error) << "warm-up query failed: " << winner.text;
    }
  }

  Replay Run(Tracer* tracer) override {
    Replay out;
    core::SurrogateCache cache;
    cold_.assign(queries_.size(), Winner{});
    std::string cold_text;
    std::string warm_text;
    const double start = Now();
    for (int pass = 0; pass < 2; ++pass) {
      const double pass_start = Now();
      for (std::size_t i = 0; i < queries_.size(); ++i) {
        const Query& query = queries_[i];
        core::PlannerOptions options = query.options;
        options.cache = &cache;
        const int span = tracer != nullptr
                             ? tracer->recorder().Begin(pass == 0 ? "query.cold" : "query.warm",
                                                        -1, static_cast<int>(i))
                             : -1;
        const double call_start = Now();
        const Winner winner =
            Execute(query, options, fixtures_, tracer, span, /*replay_layers=*/pass == 0);
        const double call_ms = (Now() - call_start) * 1e3;
        ++out.calls;
        if (winner.error) {
          ++out.failed;
          std::printf("# error: %s: %s\n", query.Label().c_str(), winner.text.c_str());
        }
        if (pass == 0) {
          out.cold_ms.push_back(call_ms);
          out.cold_candidates += winner.candidates;
          cold_[i] = winner;
          cold_text += DigestLine(query, winner);
        } else {
          out.warm_ms.push_back(call_ms);
          warm_text += DigestLine(query, winner);
        }
      }
      if (pass == 0) {
        out.cold_s = Now() - pass_start;
      }
    }
    out.wall_s = Now() - start;
    if (tracer != nullptr) {
      tracer->RecordCache(cache.stats());
    }
    out.digest = Fnv1a(cold_text);
    // The warm pass must land on the same winners as the cold pass.
    if (Fnv1a(warm_text) != out.digest) {
      ++out.failed;
    }
    return out;
  }

  void Check(std::vector<std::string>* errors) override {
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const Query& query = queries_[i];
      const Winner& winner = cold_[i];
      if (winner.error || !winner.found) {
        continue;  // an error already counted as a failed call
      }
      // Re-simulate the winner: its iteration time must match bit for bit.
      const model::TransformerConfig& config = fixtures_.models.at(query.model);
      core::IterationOptions iteration = query.options.iteration;
      iteration.keep_timeline = false;
      const double resim =
          query.target == Target::kFleet
              ? core::SimulatePlacedIteration(config, {winner.strategy, winner.placement},
                                              fixtures_.fleet, query.global_batch, iteration)
                    .result.iteration_time
              : core::SimulateIteration(config, winner.strategy,
                                        fixtures_.cluster(query.target), query.global_batch,
                                        iteration)
                    .iteration_time;
      if (Bits(resim) != Bits(winner.iteration_time)) {
        char msg[256];
        std::snprintf(msg, sizeof(msg), "%s: winner re-sim %.17g != %.17g",
                      query.Label().c_str(), resim, winner.iteration_time);
        errors->push_back(msg);
      }
    }
    // Thread-count invariance on a seeded sample: the serial search must
    // pick the same winner as the multi-threaded one.
    for (const std::size_t i : parity_sample_) {
      core::PlannerOptions options = queries_[i].options;
      options.threads = 1;
      const Winner serial = Execute(queries_[i], options, fixtures_, nullptr, -1, false);
      if (DigestLine(queries_[i], serial) != DigestLine(queries_[i], cold_[i])) {
        errors->push_back(queries_[i].Label() + ": threads=1 winner differs from threads=" +
                          std::to_string(queries_[i].options.threads));
      }
    }
  }

  int CheckCount() const override {
    return static_cast<int>(queries_.size() + parity_sample_.size());
  }

 private:
  std::string name_;
  Fixtures fixtures_;
  std::vector<Query> queries_;
  std::vector<Query> warmup_;  // shapes outside the list
  std::vector<std::size_t> parity_sample_;
  std::vector<Winner> cold_;  // winners of the last replay's cold pass
};

// ---- cluster service ------------------------------------------------------

struct NodeFailure {
  double time = 0;  // from the start of its burst
  int tier = 0;
  int node = 0;
};

// A burst of job arrivals (times from the burst's start) with the node
// failures that hit the fleet during it.
struct Burst {
  std::vector<core::JobRequest> requests;
  std::vector<NodeFailure> failures;
};

class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(std::vector<Burst> bursts, std::vector<core::JobRequest> warmup,
                  core::ClusterServiceOptions options)
      : bursts_(std::move(bursts)), warmup_(std::move(warmup)), options_(std::move(options)) {}

  std::string Describe() const override {
    std::map<std::string, int> by_method;
    std::size_t jobs = 0;
    std::size_t failures = 0;
    int nodes = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const Burst& burst : bursts_) {
      jobs += burst.requests.size();
      failures += burst.failures.size();
      for (const core::JobRequest& r : burst.requests) {
        ++by_method[core::ToString(r.method)];
        nodes += r.max_nodes;
        char line[160];
        std::snprintf(line, sizeof(line), "%s %s %d %d %d %d %.17g %.17g\n", r.name.c_str(),
                      core::ToString(r.method), r.global_batch, r.priority, r.min_nodes,
                      r.max_nodes, r.arrival, r.iterations);
        digest = Fnv1a(line, digest);
      }
    }
    std::string methods;
    for (const auto& [method, count] : by_method) {
      methods += (methods.empty() ? "" : ",") + method + "=" + std::to_string(count);
    }
    char line[512];
    std::snprintf(line, sizeof(line),
                  "service: %zu jobs in %zu bursts (%s; mean max_nodes %.2f), %zu node "
                  "failures, fleet rtx4090 8x8 + a100 4x8, list digest %016llx",
                  jobs, bursts_.size(), methods.c_str(),
                  jobs == 0 ? 0.0 : static_cast<double>(nodes) / static_cast<double>(jobs),
                  failures, static_cast<unsigned long long>(digest));
    return line;
  }

  void WarmUp() override {
    core::ClusterService service(TwoTierFleet(), options_);
    for (const core::JobRequest& request : warmup_) {
      service.Submit(request);
    }
    service.Drain();
  }

  Replay Run(Tracer* tracer) override {
    Replay out;
    services_.clear();
    call_ms_.clear();
    double drain_s = 0;
    std::string logs;
    int index = 0;
    for (const Burst& burst : bursts_) {
      // One session per burst: a fresh service takes the burst cold, then
      // the same burst again once it drained and every failed node is
      // repaired, against the plan memo and surrogate cache it now holds.
      services_.push_back(std::make_unique<core::ClusterService>(TwoTierFleet(), options_));
      core::ClusterService& service = *services_.back();
      for (int pass = 0; pass < 2; ++pass) {
        const auto timed = [&](const char* name, auto&& call) {
          const int span = tracer != nullptr ? tracer->recorder().Begin(name, -1, index) : -1;
          ++index;
          const double call_start = Now();
          try {
            call();
          } catch (const mepipe::CheckError& err) {
            ++out.failed;
            std::printf("# error: %s: %s\n", name, err.what());
          }
          call_ms_.push_back((Now() - call_start) * 1e3);
          ++out.calls;
          if (span >= 0) {
            tracer->recorder().End(span);
            if (pass == 0) {
              tracer->ObserveService(span, service, options_);
            }
          }
        };
        const double pass_start = Now();
        const double offset = pass == 0 ? 0 : service.now() + options_.repair_time;
        std::size_t next_failure = 0;
        const auto fail_until = [&](double horizon) {
          while (next_failure < burst.failures.size() &&
                 burst.failures[next_failure].time + offset <= horizon) {
            const NodeFailure& f = burst.failures[next_failure++];
            timed("node_failure", [&] {
              service.OnNodeFailure(std::max(f.time + offset, service.now()), f.tier, f.node);
            });
          }
        };
        for (core::JobRequest request : burst.requests) {
          request.arrival += offset;
          fail_until(request.arrival);
          timed("submit", [&] { service.Submit(std::move(request)); });
        }
        fail_until(std::numeric_limits<double>::infinity());
        const int span = tracer != nullptr ? tracer->recorder().Begin("drain", -1, -1) : -1;
        const double drain_start = Now();
        service.Drain();
        const double end = Now();
        drain_s += end - drain_start;
        if (span >= 0) {
          tracer->recorder().End(span);
        }
        out.wall_s += end - pass_start;
        (pass == 0 ? out.cold_ms : out.warm_ms).push_back((end - pass_start) * 1e3);
        if (pass == 0) {
          out.cold_s += end - pass_start;
          const core::SurrogateCache::Stats stats = service.cache().stats();
          out.cold_candidates += stats.hits + stats.misses;
        }
      }
      logs += core::FormatEventLog(service.fleet(), service.events());
    }
    out.digest = Fnv1a(logs);
    if (tracer != nullptr) {
      for (const auto& service : services_) {
        tracer->RecordService(*service);
      }
      tracer->RecordServiceCalls(drain_s, call_ms_);
    }
    return out;
  }

  void Check(std::vector<std::string>* errors) override {
    for (const auto& service : services_) {
      try {
        service->VerifyInvariants();
      } catch (const mepipe::CheckError& err) {
        errors->push_back(std::string("service invariants: ") + err.what());
      }
      if (!core::ValidateEventLog(core::FormatEventLog(service->fleet(), service->events()))) {
        errors->push_back("service event log fails ValidateEventLog");
      }
    }
  }

  int CheckCount() const override { return 2 * static_cast<int>(bursts_.size()); }

 private:
  std::vector<Burst> bursts_;
  std::vector<core::JobRequest> warmup_;
  core::ClusterServiceOptions options_;
  // Sessions and per-call latencies of the last replay.
  std::vector<std::unique_ptr<core::ClusterService>> services_;
  std::vector<double> call_ms_;
};

// ---- input generation -------------------------------------------------------

const std::vector<Method> kMethods = {Method::kGPipe, Method::kDapple,   Method::kVpp,
                                      Method::kHanayo, Method::kTeraPipe, Method::kZb1p,
                                      Method::kZbv,   Method::kSvpp};
const std::vector<std::string> kModels = {"7B", "13B", "34B"};

// bench_planner_scale's wide throughput grid.
core::PlannerOptions WideGrid() {
  core::PlannerOptions options;
  options.min_dp = 2;
  options.pp_candidates = {2, 4, 5, 8, 10, 16, 20, 32};
  options.slice_candidates = {1, 2, 4, 8, 16};
  options.vp_candidates = {1, 2, 4, 5, 8};
  options.tp_candidates = {1, 2, 4, 8};
  options.two_phase = true;
  options.surrogate_top_k = 4;
  options.threads = 2;
  return options;
}

// The placed grid of the fleet queries (the cluster service's shape grid).
core::PlannerOptions FleetGrid() {
  core::PlannerOptions options;
  options.min_dp = 1;
  options.pp_candidates = {2, 4, 8};
  options.slice_candidates = {1, 2, 4};
  options.vp_candidates = {1, 2};
  options.two_phase = true;
  options.surrogate_top_k = 4;
  options.threads = 2;
  return options;
}

core::PlannerOptions SmokeGrid(core::PlannerOptions options) {
  options.pp_candidates = {2, 4};
  options.slice_candidates = {1, 2};
  options.vp_candidates = {1, 2};
  options.tp_candidates = {1};
  return options;
}

std::vector<std::size_t> Sample(Draw& draw, std::size_t size, std::size_t count) {
  std::vector<std::size_t> indices(size);
  for (std::size_t i = 0; i < size; ++i) {
    indices[i] = i;
  }
  draw.Shuffle(indices);
  indices.resize(std::min(count, size));
  std::sort(indices.begin(), indices.end());
  return indices;
}

std::unique_ptr<Workload> MakeSweep(std::uint64_t seed, bool smoke) {
  Draw draw(seed);
  std::vector<Query> list;
  const core::PlannerOptions wide = smoke ? SmokeGrid(WideGrid()) : WideGrid();
  const core::PlannerOptions placed = smoke ? SmokeGrid(FleetGrid()) : FleetGrid();
  // The full factorial, so every seed asks the same amount of work: each
  // method and model at every batch size on both clusters.
  for (const Method method : kMethods) {
    for (const std::string& size : kModels) {
      for (const int batch : {16, 32, 64, 128}) {
        for (const Target target : {Target::kRtx4090, Target::kA100}) {
          list.push_back({method, size, batch, target, wide});
        }
      }
    }
  }
  // Fleet queries: every model with four methods under both objectives.
  for (const std::string& size : kModels) {
    for (const Method method : {Method::kDapple, Method::kZb1p, Method::kZbv, Method::kSvpp}) {
      for (const PlannerObjective objective :
           {PlannerObjective::kIterationTime, PlannerObjective::kDollarCost}) {
        Query q{method, size, 32, Target::kFleet, placed};
        q.options.objective = objective;
        list.push_back(q);
      }
    }
  }
  draw.Shuffle(list);
  if (smoke) {
    // Two homogeneous queries and one fleet query on the smallest shapes.
    std::vector<Query> few;
    int homogeneous = 0;
    int fleet = 0;
    for (const Query& q : list) {
      const bool placed_query = q.target == Target::kFleet;
      int& count = placed_query ? fleet : homogeneous;
      if (q.model == "7B" && q.global_batch <= 32 && count < (placed_query ? 1 : 2)) {
        few.push_back(q);
        ++count;
      }
    }
    list = std::move(few);
  }
  const std::vector<std::size_t> parity = Sample(draw, list.size(), smoke ? 1 : 6);
  // Warm-up: every method at a batch size outside the list.
  std::vector<Query> warmup;
  for (const Method method : kMethods) {
    warmup.push_back({method, "34B", 48, Target::kRtx4090, wide});
  }
  if (smoke) {
    warmup.resize(1);
  }
  return std::make_unique<PlannerWorkload>("sweep", std::move(list), std::move(warmup),
                                           parity);
}

std::unique_ptr<Workload> MakeExact(std::uint64_t seed, bool smoke) {
  Draw draw(seed);
  core::PlannerOptions base;
  base.pp_candidates = {2, 4, 8, 16};
  base.slice_candidates = {1, 2, 4, 8, 16};
  base.vp_candidates = {1, 2, 4};
  base.two_phase = false;
  base.prune = false;
  base.threads = 1;
  base.resilience.seed = 7;
  // Trimmed interval-solver effort, as in bench_planner_scale.
  base.interval_solver = {0, 0, /*coarse_points=*/9, /*golden_iterations=*/8};
  if (smoke) {
    base = SmokeGrid(base);
  }
  std::vector<Query> list;
  // A fixed Latin design, so every seed asks the same work: method i runs
  // the goodput objective on model i mod 3 (a third of the queries), and
  // per (method, model) one of the two batches runs with overlapped DP
  // sync (a half). The seed orders the list.
  for (std::size_t i = 0; i < kMethods.size(); ++i) {
    for (std::size_t m = 0; m < kModels.size(); ++m) {
      for (std::size_t b = 0; b < 2; ++b) {
        Query q{kMethods[i], kModels[m], b == 0 ? 64 : 256, Target::kRtx4090, base};
        if (m == i % kModels.size()) {
          q.options.objective = PlannerObjective::kGoodput;
        }
        q.options.iteration.dp_overlap = b == (i + m) % 2;
        list.push_back(q);
      }
    }
  }
  draw.Shuffle(list);
  if (smoke) {
    list.resize(2);
    for (Query& q : list) {
      q.model = "7B";
      q.global_batch = 16;
    }
  }
  std::vector<Query> warmup;
  for (const Method method : kMethods) {
    warmup.push_back({method, "13B", 96, Target::kRtx4090, base});
  }
  if (smoke) {
    warmup.resize(1);
  }
  return std::make_unique<PlannerWorkload>("exact", std::move(list), std::move(warmup),
                                           std::vector<std::size_t>{});
}

std::unique_ptr<Workload> MakeSynth(std::uint64_t seed, bool smoke) {
  Draw draw(seed);
  core::PlannerOptions base;
  base.pp_candidates = {2, 4, 8};
  base.slice_candidates = {1};
  base.vp_candidates = {1, 2};
  base.two_phase = true;
  base.surrogate_top_k = 4;
  base.threads = 2;
  if (smoke) {
    base.pp_candidates = {4};
    base.vp_candidates = {1};
  }
  std::vector<Query> list;
  // Each (model, batch) pair runs once per cluster; the seed only orders.
  for (const std::string& size : kModels) {
    for (const int batch : {16, 32, 64}) {
      for (const Target target : {Target::kRtx4090, Target::kA100}) {
        list.push_back({Method::kSynth, size, batch, target, base});
      }
    }
  }
  draw.Shuffle(list);
  if (smoke) {
    list = {{Method::kSynth, "7B", 32, Target::kA100, base}};
  }
  const std::vector<std::size_t> parity = Sample(draw, list.size(), smoke ? 1 : 2);
  std::vector<Query> warmup;
  for (const std::string& size : kModels) {
    warmup.push_back({Method::kSynth, size, 48, Target::kRtx4090, base});
  }
  if (smoke) {
    warmup.resize(1);
  }
  return std::make_unique<PlannerWorkload>("synth", std::move(list), std::move(warmup),
                                           parity);
}

core::TrafficOptions ServiceTraffic(std::uint64_t seed, int jobs) {
  core::TrafficOptions traffic;
  traffic.jobs = jobs;
  traffic.mean_interarrival = 60;  // heavy: arrivals outpace completions
  traffic.seed = seed;
  traffic.min_iterations = 200;
  traffic.max_iterations = 600;
  const std::vector<std::pair<int, int>> nodes = {{1, 2}, {1, 3}, {2, 4}};
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    for (const Method method : {Method::kSvpp, Method::kZbv, Method::kDapple}) {
      for (const int batch : {16, 32}) {
        core::JobMixEntry entry;
        entry.config = model::LlamaBySize(kModels[m]);
        entry.method = method;
        entry.global_batch = batch;
        entry.min_nodes = nodes[m].first;
        entry.max_nodes = nodes[m].second;
        entry.weight = 1.0;
        traffic.mix.push_back(entry);
      }
    }
  }
  return traffic;
}

std::unique_ptr<Workload> MakeService(std::uint64_t seed, bool smoke) {
  Draw draw(seed);
  core::ClusterServiceOptions options;
  options.policy = core::AllocationPolicy::kDynamic;
  options.planner.min_dp = 1;
  options.planner.pp_candidates = {2, 4, 8};
  options.planner.slice_candidates = {1, 2, 4};
  options.planner.vp_candidates = {1};
  options.planner.two_phase = true;
  options.planner.surrogate_top_k = 4;
  options.planner.threads = 1;
  // 612 jobs as 34 independent heavy bursts, each taken by a fresh
  // service session. Every burst holds each entry of the job mix once, in
  // a seeded order with seeded arrivals, priorities, deadlines and
  // lengths, so every seed asks for the same kinds of plans. Each job is
  // pinned to one tier (alternating), so a carve never spans tiers: a few
  // cross-tier fleet plans would otherwise decide the run time, and the
  // sweep workload measures the fleet planner.
  const std::vector<core::JobMixEntry> mix = ServiceTraffic(0, 1).mix;
  const int bursts = smoke ? 2 : 34;
  const int failures = smoke ? 1 : 8;
  const hw::ClusterTopology fleet = TwoTierFleet();
  std::vector<Burst> list(static_cast<std::size_t>(bursts));
  for (Burst& burst : list) {
    std::vector<core::JobMixEntry> entries = mix;
    draw.Shuffle(entries);
    if (smoke) {
      entries.resize(3);
    }
    burst.requests = core::GenerateTraffic(
        ServiceTraffic(draw.rng().NextU64(), static_cast<int>(entries.size())));
    for (std::size_t j = 0; j < entries.size(); ++j) {
      core::JobRequest& request = burst.requests[j];
      request.config = entries[j].config;
      request.method = entries[j].method;
      request.global_batch = entries[j].global_batch;
      request.min_nodes = entries[j].min_nodes;
      request.max_nodes = entries[j].max_nodes;
      request.preferred_tier = static_cast<int>(j % 2);
    }
  }
  for (int i = 0; i < failures; ++i) {
    Burst& burst = list[static_cast<std::size_t>(draw.Below(bursts))];
    NodeFailure f;
    f.time = burst.requests.back().arrival * draw.rng().NextUniform();
    f.tier = draw.Below(fleet.num_tiers());
    f.node = draw.Below(fleet.tier(f.tier).nodes);
    burst.failures.push_back(f);
  }
  for (Burst& burst : list) {
    std::sort(burst.failures.begin(), burst.failures.end(),
              [](const NodeFailure& a, const NodeFailure& b) { return a.time < b.time; });
  }
  // The warm-up burst is the same for every seed.
  std::vector<core::JobRequest> warmup =
      core::GenerateTraffic(ServiceTraffic(/*seed=*/17, smoke ? 2 : 12));
  return std::make_unique<ServiceWorkload>(std::move(list), std::move(warmup), options);
}
}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool smoke) {
  if (name == "sweep") {
    return MakeSweep(seed, smoke);
  }
  if (name == "exact") {
    return MakeExact(seed, smoke);
  }
  if (name == "service") {
    return MakeService(seed, smoke);
  }
  if (name == "synth") {
    return MakeSynth(seed, smoke);
  }
  return nullptr;
}

}  // namespace perfbench
