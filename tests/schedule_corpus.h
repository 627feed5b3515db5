// A corpus of ~100 generated schedules covering every generator the
// planner calls, over p ∈ {2, 3, 4, 8} and several n, s and v. test_generator
// pins each one's serialized text by hash (golden/schedule_corpus.txt);
// test_engine_errors mutates them to fuzz schedule validation.
#ifndef MEPIPE_TESTS_SCHEDULE_CORPUS_H_
#define MEPIPE_TESTS_SCHEDULE_CORPUS_H_

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/format.h"
#include "core/svpp.h"
#include "sched/baselines.h"
#include "sched/generator.h"
#include "sched/synth.h"
#include "sched/zbv.h"

namespace mepipe {

struct CorpusEntry {
  std::string shape;  // generator and its arguments, one golden line each
  sched::Schedule schedule;
};

inline std::vector<CorpusEntry> ScheduleCorpus() {
  std::vector<CorpusEntry> corpus;
  const auto add = [&corpus](std::string shape, sched::Schedule schedule) {
    corpus.push_back({std::move(shape), std::move(schedule)});
  };
  const int stage_counts[] = {2, 3, 4, 8};

  for (const int p : stage_counts) {
    for (const int n : {3, 8}) {
      add(StrFormat("gpipe p=%d n=%d", p, n), sched::GPipeSchedule(p, n));
      add(StrFormat("zb1p p=%d n=%d", p, n), sched::Zb1pSchedule(p, n));
    }
    for (const int n : {2, 5, 12}) {
      add(StrFormat("1f1b p=%d n=%d", p, n), sched::OneFOneBSchedule(p, n));
    }
    for (const int s : {2, 4}) {
      add(StrFormat("terapipe p=%d s=%d n=3", p, s), sched::TeraPipeSchedule(p, s, 3));
    }
    for (const int n : {4, 9}) {
      add(StrFormat("hanayo p=%d n=%d", p, n), sched::HanayoSchedule(p, n));
      add(StrFormat("zbv_capped p=%d n=%d", p, n), sched::ZbvCappedSchedule(p, n));
    }
  }

  for (const auto& [p, v, n] : std::vector<std::tuple<int, int, int>>{
           {2, 2, 4}, {2, 3, 6}, {3, 2, 6}, {4, 2, 4}, {4, 2, 8}, {4, 3, 8}, {8, 2, 8},
           {8, 2, 16}}) {
    add(StrFormat("vpp p=%d v=%d n=%d", p, v, n), sched::VppSchedule(p, v, n));
  }

  // Handcrafted ZBV: default options, and the memory-aware fill under
  // measured-like costs, unit act-grad weight and a budget tight enough
  // that the makespan winner does not always fit.
  for (const int p : stage_counts) {
    for (const int n : {3, 12}) {
      add(StrFormat("zbv p=%d n=%d", p, n), sched::HandcraftedZbvSchedule(p, n));
      sched::ZbvOptions tight;
      tight.b_time = 1.2;
      tight.w_time = 0.8;
      tight.act_grad_weight = 1.0;
      tight.activation_budget_units = 3.25 * p;
      add(StrFormat("zbv_budget p=%d n=%d", p, n), sched::HandcraftedZbvSchedule(p, n, tight));
    }
  }

  // SVPP at the automatic (lowest-bubble) variant and at the v·s floor.
  for (const auto& [p, v, s, n] : std::vector<std::tuple<int, int, int, int>>{
           {2, 1, 2, 4}, {3, 2, 2, 3}, {4, 1, 4, 6}, {4, 2, 2, 4}, {8, 1, 2, 8}, {8, 2, 4, 4}}) {
    core::SvppOptions svpp;
    svpp.stages = p;
    svpp.virtual_chunks = v;
    svpp.slices = s;
    svpp.micros = n;
    add(StrFormat("svpp_auto p=%d v=%d s=%d n=%d", p, v, s, n), core::GenerateSvpp(svpp));
    svpp.max_inflight = core::MinInflight(svpp);
    add(StrFormat("svpp_floor p=%d v=%d s=%d n=%d", p, v, s, n), core::GenerateSvpp(svpp));
  }

  // A placed regeneration as core/fleet's BuildPlaced makes it: per-stage
  // caps and per-stage time scales around a slow stage.
  {
    sched::PipelineProblem problem;
    problem.stages = 4;
    problem.virtual_chunks = 2;
    problem.slices = 2;
    problem.micros = 6;
    problem.split_backward = true;
    sched::GeneratorOptions generator;
    generator.inflight_cap = {9, 7, 6, 4};
    generator.backward_first = true;
    generator.child_count_backward_priority = true;
    generator.wgrad = sched::WgradPolicy::kDeferred;
    generator.stage_time_scale = {0.9, 1.6, 1.0, 0.8};
    add("placed p=4 v=2 s=2 n=6",
        sched::GenerateCapped(problem, generator, "SVPP(v=2,s=2,f=9)+placed"));
  }

  // The synthesizer at its 1F1B and ZBV budget extremes.
  for (const int p : stage_counts) {
    for (const int n : {4, 8}) {
      sched::PipelineProblem fused;
      fused.stages = p;
      fused.micros = n;
      sched::SynthOptions onefoneb;
      onefoneb.b_time = 2.0;
      onefoneb.budget = sched::SynthOneFOneBBudget(p, n);
      add(StrFormat("synth_1f1b p=%d n=%d", p, n), sched::SynthesizeSchedule(fused, onefoneb));

      sched::PipelineProblem vshape = fused;
      vshape.virtual_chunks = 2;
      vshape.split_backward = true;
      vshape.placement = sched::ChunkPlacement::kVShape;
      sched::SynthOptions zbv;
      zbv.budget = sched::SynthZbvBudget(p, n);
      add(StrFormat("synth_zbv p=%d n=%d", p, n), sched::SynthesizeSchedule(vshape, zbv));
    }
  }
  return corpus;
}

}  // namespace mepipe

#endif  // MEPIPE_TESTS_SCHEDULE_CORPUS_H_
