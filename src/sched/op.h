// The operation taxonomy every pipeline schedule in this library is
// expressed in, and the pipeline problem instance they are scheduled for.
//
// A compute op is identified by (kind, micro, slice, chunk):
//   micro ∈ [0, n)  — micro-batch index
//   slice ∈ [0, s)  — slice index within the micro-batch's sample (§2.1,
//                     TeraPipe-style sequence slicing; s=1 ⇒ classic PP)
//   chunk ∈ [0, v·p) — global model chunk (§2.1, VPP; v=1 ⇒ one chunk per
//                     stage). The chunk determines the owning stage.
// Weight-gradient work may additionally be decomposed into individual
// GEMMs (§5), identified by a `gemm` sub-index.
#ifndef MEPIPE_SCHED_OP_H_
#define MEPIPE_SCHED_OP_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "common/check.h"

namespace mepipe::sched {

enum class OpKind : std::uint8_t {
  kForward,         // F — forward pass of one slice through one chunk
  kBackward,        // B — activation-gradient backward (or full backward
                    //     when the schedule does not split B/W)
  kWeightGrad,      // W — whole weight-gradient computation of a slice/chunk
  kWeightGradGemm,  // Wg — one GEMM of a W computation (fine-grained, §5)
  kDpSync,          // AR — data-parallel gradient all-reduce of one
                    //      bucket (all gradients of one chunk). Runs on a
                    //      comm stream, not the compute stream; becomes
                    //      ready when the last gradient op of its chunk
                    //      completes. Identified by `chunk` alone
                    //      (micro/slice/gemm are 0/0/-1).
};

const char* ToString(OpKind kind);

struct OpId {
  OpKind kind = OpKind::kForward;
  int micro = 0;
  int slice = 0;
  int chunk = 0;
  int gemm = -1;  // only meaningful for kWeightGradGemm
  // Owning training job, for multi-job cluster timelines (core/cluster).
  // 0 = untagged single-job run — the default everywhere a schedule is
  // generated; sched::TagJob stamps a whole schedule after the fact and
  // every dependency/engine-synthesized op inherits the consumer's tag,
  // so one interleaved timeline can attribute each span to its job (the
  // multi-session `session_id` idiom).
  int job = 0;

  friend auto operator<=>(const OpId&, const OpId&) = default;
};

std::string ToString(const OpId& op);

struct OpIdHash {
  std::size_t operator()(const OpId& op) const;
};

// How global chunks map onto pipeline stages.
enum class ChunkPlacement : std::uint8_t {
  kRoundRobin,  // stage(g) = g mod p  (Megatron interleaved VPP)
  kVShape,      // v=2 zig-zag: 0,1,…,p-1,p-1,…,1,0  (ZBV / Hanayo wave)
};

// A pipeline scheduling problem instance (Table 1 notations).
struct PipelineProblem {
  int stages = 1;          // p
  int virtual_chunks = 1;  // v — chunks per stage
  int slices = 1;          // s — sequence pipeline size
  int micros = 1;          // n — number of micro-batches
  bool split_backward = false;  // B and W are separate ops (ZB / MEPipe)
  ChunkPlacement placement = ChunkPlacement::kRoundRobin;

  int num_chunks() const { return virtual_chunks * stages; }

  // Inline: the schedule builders, the engine and the cost models call it
  // per op.
  int stage_of_chunk(int chunk) const {
    MEPIPE_CHECK_GE(chunk, 0);
    MEPIPE_CHECK_LT(chunk, num_chunks());
    if (placement == ChunkPlacement::kVShape) {
      // Zig-zag: 0,1,…,p-1, then p-1,…,1,0, repeating.
      const int round = chunk / stages;
      const int offset = chunk % stages;
      return (round % 2 == 0) ? offset : stages - 1 - offset;
    }
    return chunk % stages;
  }

  // Compute ops per stage in a full iteration (excluding per-GEMM splits):
  // n·s·v forwards, n·s·v backwards (+ n·s·v weight grads when split).
  std::int64_t ops_per_stage() const;

  void Validate() const;  // throws CheckError on malformed instances
};

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_OP_H_
