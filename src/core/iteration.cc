#include "core/iteration.h"

#include <algorithm>

#include "common/check.h"
#include "common/format.h"
#include "core/memory_model.h"
#include "core/svpp.h"
#include "sched/baselines.h"
#include "sched/synth.h"
#include "sched/zbv.h"

namespace mepipe::core {

bool MethodSplitsBackward(Method method) {
  return method == Method::kZb1p || method == Method::kZbv || method == Method::kZbvCapped ||
         method == Method::kSvpp || method == Method::kSynth;
}

bool MethodUsesSlices(Method method) {
  return method == Method::kSvpp || method == Method::kTeraPipe;
}

sched::PipelineProblem ProblemFor(const Strategy& strategy, int micros) {
  sched::PipelineProblem problem;
  problem.stages = strategy.pp;
  problem.virtual_chunks = strategy.vp;
  problem.slices = strategy.spp;
  problem.micros = micros;
  problem.split_backward = MethodSplitsBackward(strategy.method);
  if (strategy.method == Method::kZbv || strategy.method == Method::kZbvCapped ||
      strategy.method == Method::kHanayo ||
      (strategy.method == Method::kSynth && strategy.vp == 2)) {
    problem.placement = sched::ChunkPlacement::kVShape;
  }
  return problem;
}

namespace {

CandidateBuild InfeasibleBuild(const Strategy& strategy, std::string note) {
  CandidateBuild build;
  build.strategy = strategy;
  build.feasible = false;
  build.note = std::move(note);
  return build;
}

}  // namespace

CandidateBuild BuildCandidate(const model::TransformerConfig& config,
                              const Strategy& strategy, const hw::ClusterSpec& cluster,
                              int global_batch, const IterationOptions& options) {
  // ---- structural feasibility -------------------------------------------
  if (strategy.method == Method::kHanayo && strategy.vp != 2) {
    return InfeasibleBuild(strategy, "the Hanayo wave schedule is defined for vp=2");
  }
  const int world = cluster.world_size();
  if (strategy.layout().ranks() != world) {
    return InfeasibleBuild(strategy, StrFormat("layout covers %d ranks, cluster has %d",
                                               strategy.layout().ranks(), world));
  }
  if (global_batch % strategy.dp != 0) {
    return InfeasibleBuild(strategy, "global batch not divisible by dp");
  }
  const int micros = global_batch / strategy.dp;
  if (config.partition_units() % (strategy.pp * strategy.vp) != 0) {
    return InfeasibleBuild(strategy,
                           StrFormat("%lld units not divisible by pp*vp=%d",
                                     static_cast<long long>(config.partition_units()),
                                     strategy.pp * strategy.vp));
  }
  if (config.partition_units() / (strategy.pp * strategy.vp) < 1) {
    return InfeasibleBuild(strategy, "fewer partition units than chunks");
  }
  if (strategy.cp > 1 && strategy.spp > 1) {
    return InfeasibleBuild(strategy, "cp and spp cannot be combined");
  }
  if (config.seq_len % strategy.cp != 0) {
    return InfeasibleBuild(strategy, "sequence length not divisible by cp");
  }
  if (strategy.recompute && MethodSplitsBackward(strategy.method)) {
    return InfeasibleBuild(strategy, "recompute incompatible with split B/W (§7.1)");
  }
  if (strategy.method == Method::kVpp) {
    if (strategy.vp < 2) {
      return InfeasibleBuild(strategy, "VPP requires vp >= 2");
    }
    if (micros % strategy.pp != 0) {
      return InfeasibleBuild(strategy, "Megatron interleaving requires n % p == 0");
    }
  }
  if ((strategy.method == Method::kZbv || strategy.method == Method::kZbvCapped) &&
      strategy.vp != 2) {
    return InfeasibleBuild(strategy, "ZBV is defined for vp=2");
  }
  if ((strategy.method == Method::kDapple || strategy.method == Method::kGPipe ||
       strategy.method == Method::kZb1p) &&
      strategy.vp != 1) {
    return InfeasibleBuild(strategy, "method does not use virtual chunks");
  }
  if (strategy.spp > 1 && strategy.method != Method::kSvpp &&
      strategy.method != Method::kTeraPipe) {
    return InfeasibleBuild(strategy, "only SPP methods slice samples");
  }

  // ---- problem + costs -----------------------------------------------------
  CandidateBuild build;
  build.strategy = strategy;
  build.micros = micros;
  build.problem = ProblemFor(strategy, micros);
  const sched::PipelineProblem& problem = build.problem;

  build.costs.emplace(config, strategy, cluster, problem, options.cost);
  const TrainingCostModel& costs = *build.costs;

  if (problem.split_backward) {
    // Deferred weight gradients retain memory; cap every stage's
    // activation footprint at what the device leaves after static memory
    // (§5: proceed "as soon as there is enough memory"). Computed before
    // the schedule switch because the budget-aware constructions (kZbv,
    // kSynth) consume it as their activation budget.
    build.activation_budget.resize(static_cast<std::size_t>(strategy.pp));
    for (int stage = 0; stage < strategy.pp; ++stage) {
      build.activation_budget[static_cast<std::size_t>(stage)] =
          std::max<Bytes>(0, cluster.gpu.usable_memory() - costs.StaticMemory(stage));
    }
  }
  // The budget in retained-chunk-forward units (the schedule builders'
  // memory currency); 0 per-forward bytes means memory is not modeled.
  const double per_forward = static_cast<double>(costs.PerForwardActivationBytes());

  // ---- schedule -------------------------------------------------------------
  build.wgrad_mode = options.wgrad_mode;
  switch (strategy.method) {
    case Method::kGPipe:
      build.schedule = sched::GPipeSchedule(strategy.pp, micros);
      break;
    case Method::kDapple:
      build.schedule = sched::OneFOneBSchedule(strategy.pp, micros);
      break;
    case Method::kVpp:
      build.schedule = sched::VppSchedule(strategy.pp, strategy.vp, micros);
      break;
    case Method::kTeraPipe:
      build.schedule = sched::TeraPipeSchedule(strategy.pp, strategy.spp, micros);
      break;
    case Method::kZb1p:
      build.schedule = sched::Zb1pSchedule(strategy.pp, micros);
      build.wgrad_mode = sim::WgradMode::kFillWhole;  // ZB fills whole-W tasks
      break;
    case Method::kZbv: {
      // Handcrafted construction: W ops are statically placed, so the
      // engine's deferred-W fill modes do not apply. The builder orders
      // ops against the measured per-op costs, not its uniform defaults.
      sched::ZbvOptions zbv;
      zbv.f_time = costs.ComputeTime({sched::OpKind::kForward, 0, 0, 0});
      zbv.b_time = costs.ComputeTime({sched::OpKind::kBackward, 0, 0, 0});
      zbv.w_time = costs.ComputeTime({sched::OpKind::kWeightGrad, 0, 0, 0});
      zbv.transfer_time = costs.TransferTime({sched::OpKind::kForward, 0, 0, 0});
      if (per_forward > 0) {
        // Memory-aware fill selection: weight each pending W by the
        // act-grad bytes its B retains, and pass the tightest stage's
        // byte budget in chunk-forward units so the construction never
        // picks a budget-violating fill when a fitting one exists.
        zbv.act_grad_weight =
            static_cast<double>(costs.ActGradBytes({sched::OpKind::kBackward, 0, 0, 0})) /
            per_forward;
        Bytes tightest = build.activation_budget.front();
        for (const Bytes b : build.activation_budget) {
          tightest = std::min(tightest, b);
        }
        zbv.activation_budget_units = static_cast<double>(tightest) / per_forward;
      }
      build.schedule = sched::HandcraftedZbvSchedule(strategy.pp, micros, zbv);
      break;
    }
    case Method::kZbvCapped:
      build.schedule = sched::ZbvCappedSchedule(strategy.pp, micros);
      build.wgrad_mode = sim::WgradMode::kFillWhole;
      break;
    case Method::kSvpp: {
      SvppOptions svpp;
      svpp.stages = strategy.pp;
      svpp.virtual_chunks = strategy.vp;
      svpp.slices = strategy.spp;
      svpp.micros = micros;
      svpp.split_backward = true;
      if (options.svpp_inflight > 0) {
        svpp.max_inflight = options.svpp_inflight;
      } else {
        const VariantDecision decision = ChooseSvppVariant(costs, svpp, cluster.gpu);
        if (!decision.feasible) {
          return InfeasibleBuild(strategy, "no feasible SVPP variant: " + decision.reason);
        }
        svpp.max_inflight = decision.f;
      }
      build.schedule = GenerateSvpp(svpp);
      break;
    }
    case Method::kHanayo:
      build.schedule = sched::HanayoSchedule(strategy.pp, micros);
      break;
    case Method::kSynth: {
      // Budgeted synthesizer: statically-placed W like kZbv, ordered by
      // the measured per-op costs, with each stage's byte budget
      // converted into retained-chunk-forward units.
      sched::SynthOptions synth;
      synth.f_time = costs.ComputeTime({sched::OpKind::kForward, 0, 0, 0});
      synth.b_time = costs.ComputeTime({sched::OpKind::kBackward, 0, 0, 0});
      synth.w_time = costs.ComputeTime({sched::OpKind::kWeightGrad, 0, 0, 0});
      synth.transfer_time = costs.TransferTime({sched::OpKind::kForward, 0, 0, 0});
      if (per_forward > 0) {
        // A synth retained unit spans F→W: it holds the forward's
        // activation throughout and additionally the act-grad between B
        // and W (the engine releases both at W). Convert bytes at the
        // stage's worst-case per-unit cost over the chunks it owns —
        // embedding/head chunks carry more than the uniform
        // per-forward figure — so the cap is honest.
        synth.budget.resize(static_cast<std::size_t>(strategy.pp));
        std::vector<double> per_unit(static_cast<std::size_t>(strategy.pp), 0.0);
        const int total_chunks = strategy.pp * strategy.vp;
        for (int chunk = 0; chunk < total_chunks; ++chunk) {
          const int stage = problem.stage_of_chunk(chunk);
          const double cost = static_cast<double>(
              costs.ActivationBytes({sched::OpKind::kForward, 0, 0, chunk}) +
              costs.ActGradBytes({sched::OpKind::kBackward, 0, 0, chunk}));
          per_unit[static_cast<std::size_t>(stage)] =
              std::max(per_unit[static_cast<std::size_t>(stage)], cost);
        }
        for (int stage = 0; stage < strategy.pp; ++stage) {
          const int units = static_cast<int>(
              static_cast<double>(build.activation_budget[static_cast<std::size_t>(stage)]) /
              per_unit[static_cast<std::size_t>(stage)]);
          if (units < strategy.vp) {
            return InfeasibleBuild(
                strategy,
                StrFormat("synth: stage %d fits %d chunk-forwards, below the v=%d floor",
                          stage, units, strategy.vp));
          }
          synth.budget[static_cast<std::size_t>(stage)] = units;
        }
      }
      build.schedule = sched::SynthesizeSchedule(problem, synth);
      break;
    }
  }

  build.feasible = true;
  build.note = "ok";
  return build;
}

}  // namespace mepipe::core
