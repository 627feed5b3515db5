// Cluster topology and the mapping from parallel dimensions to links.
//
// Ranks are laid out Megatron-style, innermost to outermost:
//   tensor (tp) → context (cp) → data (dp) → pipeline (pp)
// so adjacent pipeline stages are world/pp ranks apart. On the paper's
// testbed (8 nodes × 8 RTX 4090, pp=8) every pipeline boundary crosses
// nodes and all eight per-node streams share one 100 Gb/s NIC.
//
// Two levels of description coexist:
//  - `ClusterSpec`: one homogeneous fleet.
//  - `ClusterTopology`: a fleet of `DeviceTier`s (GPU spec, count, rental
//    price, region) joined by typed `TierLink`s (LAN vs WAN, $/GB egress).
//    `SingleTierTopology(spec)` embeds a ClusterSpec as the one-tier
//    special case, and every dimension→link query goes through
//    `ClusterTopology::LinkFor` / `FabricShares`.
#ifndef MEPIPE_HW_CLUSTER_H_
#define MEPIPE_HW_CLUSTER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "hw/gpu.h"
#include "hw/interconnect.h"

namespace mepipe::hw {

struct ClusterSpec {
  GpuSpec gpu;
  int nodes = 0;
  int gpus_per_node = 0;
  LinkSpec intra_node;  // GPU↔GPU inside a server
  LinkSpec inter_node;  // NIC between servers (per node, shared)

  int world_size() const { return nodes * gpus_per_node; }
};

// Paper testbeds (§7.1, §7.6).
ClusterSpec Rtx4090Cluster();  // 8 nodes × 8 GPU, PCIe4 + IB-100G
ClusterSpec A100Cluster();     // 4 nodes × 8 GPU, NVLink + IB-800G

struct ClusterTopology;
struct StagePlacement;
struct LayoutIssue;

// How the world is decomposed. tp is kept for the A100 comparison; the
// 4090 search space fixes tp=1 (§7.1). spp (slice count) consumes no
// ranks and therefore does not appear here.
struct ParallelLayout {
  int pp = 1;
  int dp = 1;
  int cp = 1;
  int tp = 1;

  int ranks() const { return pp * dp * cp * tp; }

  // Structured feasibility checks, replacing the ad-hoc divisibility and
  // capacity tests previously inlined in planner grid enumeration and
  // elastic re-plans. Empty result ⇔ the layout is admissible on the
  // topology. The placement overload additionally checks the per-tier
  // rank budget and flags tp>1 on consumer (through-host fabric) tiers.
  std::vector<LayoutIssue> Validate(const ClusterTopology& topology) const;
  std::vector<LayoutIssue> Validate(const ClusterTopology& topology,
                                    const StagePlacement& placement) const;
};

// The four communication dimensions a layout maps onto links.
enum class Dim : std::uint8_t { kPipeline = 0, kContext = 1, kData = 2, kTensor = 3 };

// Which physical fabric a dimension's traffic rides, coarsest first.
enum class FabricClass : std::uint8_t { kLoopback = 0, kIntraNode = 1, kInterNode = 2, kWan = 3 };

// Per-dimension fabric assignment plus the contention predicate between
// dimensions. `Shares(kData, kPipeline)` decides whether the DP gradient
// ring and the pipeline p2p stream of one device contend (overlapped DP
// sync must then yield to in-flight transfers): no contention when
// either side is loopback; same fabric tier always contends; split tiers
// contend iff the intra-node fabric is through-host (PCIe-class),
// because NIC DMA then crosses the same root complex — the §3
// single-fabric property of cost-effective clusters. NVLink-class intra
// fabrics bypass the host.
struct FabricShareMap {
  std::array<FabricClass, 4> fabric = {FabricClass::kLoopback, FabricClass::kLoopback,
                                       FabricClass::kLoopback, FabricClass::kLoopback};
  bool through_host_intra = false;

  FabricClass of(Dim dim) const { return fabric[static_cast<int>(dim)]; }

  bool Shares(Dim a, Dim b) const {
    const FabricClass fa = of(a);
    const FabricClass fb = of(b);
    if (fa == FabricClass::kLoopback || fb == FabricClass::kLoopback) {
      return false;
    }
    if (fa == fb) {
      return true;
    }
    return through_host_intra;
  }
};

// One homogeneous slice of a heterogeneous fleet: a device class in one
// region with its own intra/inter-node links and a rental price.
struct DeviceTier {
  std::string name;
  GpuSpec gpu;
  int nodes = 0;
  int gpus_per_node = 0;
  LinkSpec intra_node;
  LinkSpec inter_node;
  // Rental rate per GPU per hour (cloud/neocloud list-price style); the
  // kDollarCost planner objective multiplies it by occupied ranks.
  double usd_per_gpu_hour = 0.0;
  std::string region = "local";

  int world_size() const { return nodes * gpus_per_node; }
  // Consumer-class fabric: intra-node traffic crosses the host root
  // complex, so tp>1 is flagged by ParallelLayout::Validate.
  bool consumer_fabric() const { return intra_node.through_host; }
  // View of this tier as a standalone homogeneous cluster.
  ClusterSpec spec() const;
};

// Typed link between two tiers. WAN links additionally price egress.
struct TierLink {
  LinkSpec link;
  double usd_per_gb_egress = 0.0;  // billed per direction
  bool wan = false;
};

// stage → tier index, one entry per pipeline stage.
struct StagePlacement {
  std::vector<int> stage_tier;

  static StagePlacement Uniform(int stages, int tier);
  int tier_of(int stage) const { return stage_tier[static_cast<std::size_t>(stage)]; }
  int stages() const { return static_cast<int>(stage_tier.size()); }
  bool uniform() const;
  // Order-sensitive hash, for surrogate cache keys.
  std::uint64_t Hash() const;
  std::string ToString() const;  // e.g. "t0x4|t1x4"
};

// Structured layout-admissibility error (see ParallelLayout::Validate).
struct LayoutIssue {
  enum class Code {
    kEmptyLayout,                    // some factor < 1
    kWorldMismatch,                  // single-tier: ranks() != world (exact cover)
    kRankOversubscription,           // a tier hosts more ranks than it has
    kPlacementShape,                 // placement length != pp or tier out of range
    kTensorParallelOnConsumerTier,   // tp>1 on a through-host-fabric tier
  };
  Code code;
  int tier = -1;  // offending tier, when applicable
  std::string message;
};

// A fleet of device tiers plus the inter-tier link matrix. The one-tier
// case reproduces the legacy ClusterSpec mapping bit-identically.
struct ClusterTopology {
  std::vector<DeviceTier> tiers;
  // Symmetric tier×tier matrix (row-major, diagonal unused). Filled by
  // SetLinkBetween; empty for single-tier topologies.
  std::vector<TierLink> tier_links;

  int num_tiers() const { return static_cast<int>(tiers.size()); }
  int world_size() const;
  const DeviceTier& tier(int i) const { return tiers[static_cast<std::size_t>(i)]; }

  void SetLinkBetween(int a, int b, TierLink link);
  const TierLink& LinkBetween(int a, int b) const;

  // Tier with the highest sustained matmul throughput (ties → lowest
  // index); the reference device for candidate construction and the
  // numerator of TierSlowdown.
  int FastestTier() const;
  // ≥ 1: how much slower tier i's device is than the fastest tier's.
  double TierSlowdown(int i) const;

  // Effective link for one dimension of `layout`. Single-tier: the
  // pipeline link (which needs a layout covering the cluster) accounts for
  // NIC sharing by co-located concurrent streams; context, data and tensor
  // groups stay intra-node while they fit in a node. Multi-tier:
  // intra-stage dimensions (cp/dp/tp) take the worst per-tier mapping;
  // kPipeline conservatively reports the slowest inter-tier link shared by
  // the dp·cp·tp concurrent boundary streams (per-boundary
  // placement-aware pricing lives in CommModel::PipelineP2pAcross).
  LinkSpec LinkFor(Dim dim, const ParallelLayout& layout) const;
  // LinkFor for a dimension evaluated on one tier's sub-cluster.
  LinkSpec LinkForOnTier(Dim dim, const ParallelLayout& layout, int tier) const;

  // Per-dimension fabric classes + contention predicate (see
  // FabricShareMap). Multi-tier maps take the worst class per dimension
  // and set through_host_intra if any tier's intra fabric is.
  FabricShareMap FabricShares(const ParallelLayout& layout) const;
};

// One tier's contribution to a carved sub-fleet: `nodes` whole nodes
// taken from tier `tier` of a parent topology. Carving is node-granular
// because a tier's NIC-sharing behaviour (gpus_per_node streams on one
// NIC) only reproduces when nodes move whole.
struct TierSlice {
  int tier = 0;
  int nodes = 0;
};

// Carves a disjoint sub-fleet out of `fleet`: whole-node slices per
// tier, preserving each tier's GPU spec, intra/inter-node links, rental
// rate and region. Slices with zero nodes are dropped (so callers can
// pass a dense per-tier demand vector); surviving tier pairs inherit
// the parent's inter-tier link. The result is a self-contained
// ClusterTopology — the planner prices it exactly as if the sub-fleet
// were the whole cluster. Node *identity* is not tracked here; the
// cluster service owns which concrete node ids back each slice.
ClusterTopology CarveSubTopology(const ClusterTopology& fleet,
                                 const std::vector<TierSlice>& slices);

// Embeds a homogeneous cluster as a one-tier topology.
ClusterTopology SingleTierTopology(const ClusterSpec& spec,
                                   double usd_per_gpu_hour = 0.0,
                                   std::string region = "local",
                                   std::string name = "t0");

// Tier presets with 2025-style neocloud rental rates (Table 9 devices).
DeviceTier Rtx4090Tier();  // 8×8, PCIe4 + IB-100G, ~$0.35/GPU-hr
DeviceTier A100Tier();     // 4×8, NVLink + IB-800G, ~$1.90/GPU-hr

// Cross-region WAN preset: `gbps` effective per direction, ~30 ms RTT
// class latency, priced per GB of egress.
TierLink WanLink(double gbps, double usd_per_gb);
// Same-campus cross-tier LAN (no egress billing).
TierLink LanLink(const LinkSpec& link);

}  // namespace mepipe::hw

#endif  // MEPIPE_HW_CLUSTER_H_
