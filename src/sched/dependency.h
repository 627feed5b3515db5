// Dependency semantics of slice-level pipeline training (§4.1, Figure 4).
//
// Forward F(m,t,g) requires:
//   - F(m,t,g-1): the slice's activations from the preceding chunk
//     (a cross-stage transfer whenever the chunks live on different
//     stages);
//   - F(m,t-1,g): the K/V of all preceding slices of the same sample on
//     the same chunk (causal attention — same device, no transfer).
// Backward B(m,t,g) requires:
//   - B(m,t,g+1) (cross-stage), or F(m,t,G-1) when g is the last chunk
//     (the loss of slice t only depends on its own logits);
//   - B(m,t+1,g): dK/dV contributions flowing from later slices.
// Weight gradients W/Wg(m,t,g) require only B(m,t,g).
// DP-sync buckets AR(g) require every gradient-producing op of chunk g:
//   all W(m,t,g) when the problem splits B/W, else all B(m,t,g) — the
//   bucket's gradients exist only once the last of them has run.
#ifndef MEPIPE_SCHED_DEPENDENCY_H_
#define MEPIPE_SCHED_DEPENDENCY_H_

#include <cstddef>
#include <vector>

#include "sched/op.h"

namespace mepipe::sched {

struct Dep {
  OpId op;
  bool cross_stage = false;  // satisfied through an inter-stage transfer

  friend bool operator==(const Dep&, const Dep&) = default;
};

// Dependencies of `op` under `problem`. `op.kind == kWeightGradGemm` deps
// match kWeightGrad (the GEMMs of one W are mutually independent).
std::vector<Dep> DependenciesOf(const PipelineProblem& problem, const OpId& op);

// Allocation-free dependency walk: invokes `visit(const Dep&)` for every
// dependency of `op`. Single source of the dependency semantics above —
// DependenciesOf and the engine's ready-time scan (shared by the DES and
// the surrogate's table replay) both go through this.
template <typename Visitor>
void ForEachDependency(const PipelineProblem& problem, const OpId& op,
                       Visitor&& visit) {
  const int last_chunk = problem.num_chunks() - 1;
  const int stage = problem.stage_of_chunk(op.chunk);
  // Dependencies never cross jobs: every producer inherits the
  // consumer's job tag, so tagged schedules (sched::TagJob) resolve
  // against their own ops.
  const int job = op.job;
  switch (op.kind) {
    case OpKind::kForward: {
      if (op.chunk > 0) {
        const bool cross = problem.stage_of_chunk(op.chunk - 1) != stage;
        visit(Dep{{OpKind::kForward, op.micro, op.slice, op.chunk - 1, -1, job}, cross});
      }
      if (op.slice > 0) {
        visit(Dep{{OpKind::kForward, op.micro, op.slice - 1, op.chunk, -1, job}, false});
      }
      break;
    }
    case OpKind::kBackward: {
      if (op.chunk < last_chunk) {
        const bool cross = problem.stage_of_chunk(op.chunk + 1) != stage;
        visit(Dep{{OpKind::kBackward, op.micro, op.slice, op.chunk + 1, -1, job}, cross});
      } else {
        visit(Dep{{OpKind::kForward, op.micro, op.slice, last_chunk, -1, job}, false});
      }
      if (op.slice + 1 < problem.slices) {
        visit(Dep{{OpKind::kBackward, op.micro, op.slice + 1, op.chunk, -1, job}, false});
      }
      break;
    }
    case OpKind::kWeightGrad:
    case OpKind::kWeightGradGemm: {
      visit(Dep{{OpKind::kBackward, op.micro, op.slice, op.chunk, -1, job}, false});
      break;
    }
    case OpKind::kDpSync: {
      // The bucket is ready once the last gradient op of its chunk has
      // run: every W when the schedule splits B/W, every B otherwise.
      const OpKind producer =
          problem.split_backward ? OpKind::kWeightGrad : OpKind::kBackward;
      for (int micro = 0; micro < problem.micros; ++micro) {
        for (int slice = 0; slice < problem.slices; ++slice) {
          visit(Dep{{producer, micro, slice, op.chunk, -1, job}, false});
        }
      }
      break;
    }
  }
}

// The dense slot of an F, B or W op: kind planes kForward=0,
// kBackward=1, kWeightGrad=2, each micros × slices × chunks. This is the
// one index of every per-op arena (the engine's completion times, the
// validators' flags, and the readiness of the list-scheduling kernel
// that GenerateCapped and the synth composer run). Only in-range F/B/W
// identities may be indexed — per-GEMM splits and DP buckets are never
// dependency targets — and arenas are sized only from a validated
// problem.
class OpIndex {
 public:
  explicit OpIndex(const PipelineProblem& problem)
      : micros_(static_cast<std::size_t>(problem.micros)),
        slices_(static_cast<std::size_t>(problem.slices)),
        chunks_(static_cast<std::size_t>(problem.virtual_chunks) *
                static_cast<std::size_t>(problem.stages)) {}

  std::size_t size() const { return 3 * micros_ * slices_ * chunks_; }

  std::size_t operator()(const OpId& op) const {
    return ((static_cast<std::size_t>(op.kind) * micros_ + static_cast<std::size_t>(op.micro)) *
                slices_ +
            static_cast<std::size_t>(op.slice)) *
               chunks_ +
           static_cast<std::size_t>(op.chunk);
  }

 private:
  std::size_t micros_;
  std::size_t slices_;
  std::size_t chunks_;
};

// All F/B(/W) compute ops owned by `stage`, in an unspecified order,
// stamped with `job` (0 = untagged). Per-GEMM W splits are not
// enumerated here (they are an execution-time refinement of
// kWeightGrad).
std::vector<OpId> StageOps(const PipelineProblem& problem, int stage, int job = 0);

// All compute ops of the whole problem.
std::vector<OpId> AllOps(const PipelineProblem& problem);

// The data-parallel gradient-sync buckets owned by `stage`: one kDpSync
// op per chunk placed on the stage, in chunk order (the order the
// engine's per-stage comm stream issues them when each is ready). These
// are comm ops — never part of Schedule::stage_ops or StageOps above.
std::vector<OpId> DpSyncOps(const PipelineProblem& problem, int stage, int job = 0);

// Canonical identity of chunk `g`'s gradient bucket.
OpId DpSyncOp(int chunk, int job = 0);

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_DEPENDENCY_H_
