#include "sched/op.h"

#include <cstdint>

#include "common/check.h"
#include "common/format.h"

namespace mepipe::sched {

const char* ToString(OpKind kind) {
  switch (kind) {
    case OpKind::kForward:
      return "F";
    case OpKind::kBackward:
      return "B";
    case OpKind::kWeightGrad:
      return "W";
    case OpKind::kWeightGradGemm:
      return "Wg";
    case OpKind::kDpSync:
      return "AR";
  }
  return "?";
}

std::string ToString(const OpId& op) {
  std::string out = StrFormat("%s(m=%d,t=%d,g=%d", ToString(op.kind), op.micro, op.slice, op.chunk);
  if (op.kind == OpKind::kWeightGradGemm) {
    out += StrFormat(",k=%d", op.gemm);
  }
  if (op.job != 0) {
    out += StrFormat(",j=%d", op.job);
  }
  return out + ")";
}

std::size_t OpIdHash::operator()(const OpId& op) const {
  std::size_t seed = static_cast<std::size_t>(op.kind);
  auto mix = [&seed](std::size_t value) {
    seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  };
  mix(static_cast<std::size_t>(op.micro));
  mix(static_cast<std::size_t>(op.slice));
  mix(static_cast<std::size_t>(op.chunk));
  mix(static_cast<std::size_t>(op.gemm + 1));
  mix(static_cast<std::size_t>(op.job));
  return seed;
}

std::int64_t PipelineProblem::ops_per_stage() const {
  const std::int64_t fb = static_cast<std::int64_t>(micros) * slices * virtual_chunks;
  return split_backward ? 3 * fb : 2 * fb;
}

void PipelineProblem::Validate() const {
  MEPIPE_CHECK_GE(stages, 1);
  MEPIPE_CHECK_GE(virtual_chunks, 1);
  MEPIPE_CHECK_GE(slices, 1);
  MEPIPE_CHECK_GE(micros, 1);
  if (placement == ChunkPlacement::kVShape) {
    MEPIPE_CHECK_EQ(virtual_chunks, 2) << "V-shape placement is defined for v=2";
  }
  // Chunks are indexed in int and every per-op arena holds 3·n·s·v·p
  // slots, so v·p and that product must fit in int. Each 64-bit partial
  // product stays below 2^62, so the check itself cannot overflow.
  std::int64_t slots = static_cast<std::int64_t>(virtual_chunks) * stages;
  MEPIPE_CHECK_LE(slots, INT32_MAX) << "v*p = " << slots << " chunks overflow int";
  for (const int factor : {3, slices, micros}) {
    slots *= factor;
    MEPIPE_CHECK_LE(slots, INT32_MAX) << "3*n*s*v*p op slots overflow int";
  }
}

}  // namespace mepipe::sched
