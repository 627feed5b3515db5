// Tests for the slice-level dependency semantics (sched/dependency).
#include "sched/dependency.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/check.h"

namespace mepipe::sched {
namespace {

PipelineProblem Make(int p, int v, int s, int n, bool split = false) {
  PipelineProblem problem;
  problem.stages = p;
  problem.virtual_chunks = v;
  problem.slices = s;
  problem.micros = n;
  problem.split_backward = split;
  return problem;
}

TEST(Dependency, FirstForwardHasNoDeps) {
  const auto deps = DependenciesOf(Make(4, 2, 2, 4), {OpKind::kForward, 0, 0, 0});
  EXPECT_TRUE(deps.empty());
}

TEST(Dependency, ForwardChunkAndSliceDeps) {
  const PipelineProblem problem = Make(4, 2, 2, 4);
  const auto deps = DependenciesOf(problem, {OpKind::kForward, 1, 1, 3});
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_EQ(deps[0].op, (OpId{OpKind::kForward, 1, 1, 2}));
  EXPECT_TRUE(deps[0].cross_stage);
  EXPECT_EQ(deps[1].op, (OpId{OpKind::kForward, 1, 0, 3}));
  EXPECT_FALSE(deps[1].cross_stage);
}

TEST(Dependency, LastChunkBackwardDependsOnItsForward) {
  const PipelineProblem problem = Make(4, 1, 2, 4);
  const auto deps = DependenciesOf(problem, {OpKind::kBackward, 0, 1, 3});
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].op, (OpId{OpKind::kForward, 0, 1, 3}));
  EXPECT_FALSE(deps[0].cross_stage);
}

TEST(Dependency, BackwardSliceChain) {
  // B of slice 0 needs B of slice 1 on the same chunk (dK/dV flow).
  const PipelineProblem problem = Make(4, 1, 2, 4);
  const auto deps = DependenciesOf(problem, {OpKind::kBackward, 2, 0, 1});
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_EQ(deps[0].op, (OpId{OpKind::kBackward, 2, 0, 2}));
  EXPECT_TRUE(deps[0].cross_stage);
  EXPECT_EQ(deps[1].op, (OpId{OpKind::kBackward, 2, 1, 1}));
  EXPECT_FALSE(deps[1].cross_stage);
}

TEST(Dependency, WeightGradDependsOnlyOnItsBackward) {
  const PipelineProblem problem = Make(4, 1, 2, 4, /*split=*/true);
  for (OpKind kind : {OpKind::kWeightGrad, OpKind::kWeightGradGemm}) {
    const auto deps = DependenciesOf(problem, {kind, 1, 1, 2, 0});
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0].op, (OpId{OpKind::kBackward, 1, 1, 2}));
  }
}

TEST(Dependency, VShapeAdjacentChunksShareStage) {
  PipelineProblem problem = Make(4, 2, 1, 2);
  problem.placement = ChunkPlacement::kVShape;
  // Chunks 3 and 4 both live on stage 3 under the V shape.
  EXPECT_EQ(problem.stage_of_chunk(3), 3);
  EXPECT_EQ(problem.stage_of_chunk(4), 3);
  const auto deps = DependenciesOf(problem, {OpKind::kForward, 0, 0, 4});
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_FALSE(deps[0].cross_stage);  // same stage — no transfer
}

TEST(Dependency, StageOpsCountsAndOwnership) {
  const PipelineProblem problem = Make(4, 2, 3, 5, /*split=*/true);
  std::size_t total = 0;
  for (int stage = 0; stage < 4; ++stage) {
    const auto ops = StageOps(problem, stage);
    EXPECT_EQ(ops.size(), static_cast<std::size_t>(5 * 3 * 2 * 3));  // n·s·v·{F,B,W}
    for (const OpId& op : ops) {
      EXPECT_EQ(problem.stage_of_chunk(op.chunk), stage);
    }
    total += ops.size();
  }
  EXPECT_EQ(AllOps(problem).size(), total);
}

TEST(Dependency, GraphIsAcyclic) {
  // Kahn-style check over every op of a nontrivial problem.
  const PipelineProblem problem = Make(3, 2, 2, 3, /*split=*/true);
  const auto ops = AllOps(problem);
  std::unordered_set<OpId, OpIdHash> done;
  std::size_t remaining = ops.size();
  bool progress = true;
  while (progress && remaining > 0) {
    progress = false;
    for (const OpId& op : ops) {
      if (done.contains(op)) {
        continue;
      }
      bool ready = true;
      for (const Dep& dep : DependenciesOf(problem, op)) {
        if (!done.contains(dep.op)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        done.insert(op);
        --remaining;
        progress = true;
      }
    }
  }
  EXPECT_EQ(remaining, 0u);
}

TEST(Problem, ValidationRejectsBadShapes) {
  PipelineProblem bad = Make(0, 1, 1, 1);
  EXPECT_THROW(bad.Validate(), CheckError);
  PipelineProblem vshape = Make(4, 3, 1, 2);
  vshape.placement = ChunkPlacement::kVShape;
  EXPECT_THROW(vshape.Validate(), CheckError);
  // Chunk indices and the 3·n·s·v·p op slots of every arena must fit in
  // int: 2.5e9 chunks and 2.4e9 slots do not, 1.2e9 slots do.
  EXPECT_THROW(Make(50'000, 50'000, 1, 1).Validate(), CheckError);
  EXPECT_THROW(Make(4, 1, 1, 200'000'000).Validate(), CheckError);
  EXPECT_NO_THROW(Make(4, 1, 1, 100'000'000).Validate());
}

TEST(Problem, OpsPerStage) {
  EXPECT_EQ(Make(4, 2, 3, 5).ops_per_stage(), 2 * 5 * 3 * 2);
  EXPECT_EQ(Make(4, 2, 3, 5, true).ops_per_stage(), 3 * 5 * 3 * 2);
}

}  // namespace
}  // namespace mepipe::sched
