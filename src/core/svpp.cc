#include "core/svpp.h"

#include <algorithm>

#include "common/check.h"
#include "common/format.h"

namespace mepipe::core {

int MinInflight(const SvppOptions& options) {
  return options.virtual_chunks * options.slices;
}

int Table3Inflight(const SvppOptions& options) {
  const int p = options.stages;
  const int s = options.slices;
  const int v = options.virtual_chunks;
  return v * std::max(p, s) + std::min(p, s) - 1;
}

int MaxUsefulInflight(const SvppOptions& options) {
  return Table3Inflight(options) + 2 * options.virtual_chunks * options.slices;
}

sched::Schedule GenerateSvpp(const SvppOptions& options) {
  sched::PipelineProblem problem;
  problem.stages = options.stages;
  problem.virtual_chunks = options.virtual_chunks;
  problem.slices = options.slices;
  problem.micros = options.micros;
  problem.split_backward = options.split_backward;
  problem.Validate();

  const int floor = MinInflight(options);
  int f = options.max_inflight == 0 ? MaxUsefulInflight(options) : options.max_inflight;
  MEPIPE_CHECK_GE(f, floor) << "SVPP variant f=" << f << " is below the v*s floor " << floor;
  f = std::min(f, MaxUsefulInflight(options));

  sched::GeneratorOptions generator;
  generator.inflight_cap = sched::CapSchedule(options.stages, f, floor);
  generator.backward_first = true;
  generator.child_count_backward_priority = options.reschedule_backwards;
  generator.wgrad = sched::WgradPolicy::kDeferred;
  return GenerateCapped(problem, generator,
                        StrFormat("SVPP(v=%d,s=%d,f=%d)", options.virtual_chunks,
                                  options.slices, f));
}

}  // namespace mepipe::core
