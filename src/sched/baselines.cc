#include "sched/baselines.h"

#include <algorithm>

#include "common/check.h"
#include "common/format.h"
#include "sched/generator.h"
#include "sched/zbv.h"

namespace mepipe::sched {
namespace {

// Mapping of Megatron-LM's interleaved-1F1B "virtual micro-batch" counter
// to (micro, local chunk). Counter k walks groups of p consecutive micros
// per chunk, cycling through the v chunks, then moving to the next group
// of p micros.
struct VirtualStep {
  int micro = 0;
  int local_chunk = 0;  // in [0, v)
};

VirtualStep DecodeVirtualStep(int k, int stages, int chunks, bool forward) {
  const int group = stages * chunks;
  const int in_group = k % group;
  int local_chunk = in_group / stages;
  if (!forward) {
    local_chunk = chunks - 1 - local_chunk;
  }
  const int micro = (in_group % stages) + stages * (k / group);
  return {micro, local_chunk};
}

}  // namespace

Schedule GPipeSchedule(int stages, int micros) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.micros = micros;
  GeneratorOptions options;
  options.backward_first = false;  // forwards drain first
  return GenerateCapped(problem, options, "GPipe");
}

Schedule OneFOneBSchedule(int stages, int micros) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.micros = micros;
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(stages, stages, 1);
  return GenerateCapped(problem, options, "1F1B");
}

Schedule VppSchedule(int stages, int virtual_chunks, int micros) {
  MEPIPE_CHECK_GE(virtual_chunks, 2) << "VPP requires at least two chunks per stage";
  MEPIPE_CHECK_EQ(micros % stages, 0) << "Megatron interleaving requires n % p == 0";
  PipelineProblem problem;
  problem.stages = stages;
  problem.virtual_chunks = virtual_chunks;
  problem.micros = micros;

  Schedule schedule;
  schedule.problem = problem;
  schedule.method = StrFormat("VPP(v=%d)", virtual_chunks);
  schedule.stage_ops.resize(static_cast<std::size_t>(stages));

  const int total = micros * virtual_chunks;  // forward units per stage
  for (int rank = 0; rank < stages; ++rank) {
    auto& ops = schedule.stage_ops[static_cast<std::size_t>(rank)];
    const int warmup = std::min((stages - rank - 1) * 2 + (virtual_chunks - 1) * stages, total);
    int f_next = 0;
    int b_next = 0;
    auto emit_forward = [&] {
      const VirtualStep step = DecodeVirtualStep(f_next++, stages, virtual_chunks, true);
      ops.push_back({OpKind::kForward, step.micro, 0, step.local_chunk * stages + rank});
    };
    auto emit_backward = [&] {
      const VirtualStep step = DecodeVirtualStep(b_next++, stages, virtual_chunks, false);
      ops.push_back({OpKind::kBackward, step.micro, 0, step.local_chunk * stages + rank});
    };
    for (int k = 0; k < warmup; ++k) {
      emit_forward();
    }
    while (f_next < total) {
      emit_forward();
      emit_backward();
    }
    while (b_next < total) {
      emit_backward();
    }
  }
  ValidateSchedule(schedule);
  return schedule;
}

Schedule TeraPipeSchedule(int stages, int slices, int micros) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.slices = slices;
  problem.micros = micros;
  GeneratorOptions options;
  options.backward_first = false;  // GPipe-like: all forwards first
  return GenerateCapped(problem, options, StrFormat("TeraPipe(s=%d)", slices));
}

Schedule Zb1pSchedule(int stages, int micros) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.micros = micros;
  problem.split_backward = true;
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(stages, stages, 1);
  options.wgrad = WgradPolicy::kDeferred;
  return GenerateCapped(problem, options, "ZB-1P");
}

Schedule HanayoSchedule(int stages, int micros) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.virtual_chunks = 2;
  problem.micros = micros;
  problem.placement = ChunkPlacement::kVShape;
  GeneratorOptions options;
  // Table 3 grants Hanayo DAPPLE-class activation memory (A): up to 2p
  // chunk-forwards of A/(2p) each on the first stage.
  options.inflight_cap = CapSchedule(stages, 2 * stages, 2);
  return GenerateCapped(problem, options, "Hanayo");
}

Schedule ZbvSchedule(int stages, int micros) {
  return HandcraftedZbvSchedule(stages, micros);
}

Schedule ZbvCappedSchedule(int stages, int micros) {
  PipelineProblem problem;
  problem.stages = stages;
  problem.virtual_chunks = 2;
  problem.micros = micros;
  problem.split_backward = true;
  problem.placement = ChunkPlacement::kVShape;
  GeneratorOptions options;
  // V-shape pairs each stage's two chunks symmetrically; cap p keeps the
  // retained-forward profile in the 1F1B family (ZBV's design goal).
  options.inflight_cap = CapSchedule(stages, std::max(stages, 2), 2);
  options.wgrad = WgradPolicy::kDeferred;
  return GenerateCapped(problem, options, "ZBV-capped");
}

}  // namespace mepipe::sched
