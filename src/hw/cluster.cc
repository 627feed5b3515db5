#include "hw/cluster.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace mepipe::hw {
namespace {

LinkSpec Shared(LinkSpec link, int streams) {
  MEPIPE_CHECK_GT(streams, 0);
  link.bandwidth /= static_cast<double>(streams);
  return link;
}

LinkSpec Loopback() { return {"loopback", 1e15, 0.0}; }

// Lightweight non-owning view of one tier's homogeneous fabric. All
// dimension→link logic lives on this view, so the single-tier and
// per-tier queries share one implementation without copying specs.
struct FabricView {
  int nodes = 0;
  int gpus_per_node = 0;
  const LinkSpec* intra = nullptr;
  const LinkSpec* inter = nullptr;

  int world() const { return nodes * gpus_per_node; }
};

FabricView ViewOf(const DeviceTier& t) {
  return {t.nodes, t.gpus_per_node, &t.intra_node, &t.inter_node};
}

// Which fabric one dimension's collective rides on a tier, and how many
// concurrent streams share the NIC when that fabric is the inter-node
// link. LinkOn prices a route; SharesOn classifies it.
struct Route {
  FabricClass fabric = FabricClass::kLoopback;
  int streams = 1;
};

// `host_stages` is how many consecutive stages this fabric hosts
// (layout.pp when it hosts the whole pipeline).
Route RouteOn(const FabricView& v, Dim dim, const ParallelLayout& layout, int host_stages) {
  constexpr Route kIntra{FabricClass::kIntraNode};
  const auto inter = [](int streams) { return Route{FabricClass::kInterNode, streams}; };
  switch (dim) {
    case Dim::kPipeline: {
      if (layout.pp == 1) {
        return {};
      }
      // The stage stride equals the per-stage rank group dp·cp·tp, which
      // for a full-cover layout is exactly world/pp.
      const int stride = layout.dp * layout.cp * layout.tp;  // ranks between stages
      if (stride >= v.gpus_per_node) {
        // Every boundary crosses nodes; all per-node streams share the NIC.
        return inter(v.gpus_per_node);
      }
      // A node holds several stages. The worst (steady-state critical)
      // boundary is still the inter-node one, shared by `stride`
      // concurrent streams.
      if (v.nodes > 1 && host_stages * stride > v.gpus_per_node) {
        return inter(stride);
      }
      return kIntra;
    }
    case Dim::kContext:
      if (layout.cp == 1) {
        return {};
      }
      // The cp·tp group spans contiguous innermost ranks.
      return layout.cp * layout.tp <= v.gpus_per_node ? kIntra : inter(v.gpus_per_node);
    case Dim::kData:
      if (layout.dp * layout.cp == 1) {
        return {};
      }
      // A ring over a contiguous multi-node block crosses each node's NIC
      // once per direction; only the cp·tp rings interleaved within the
      // same block contend for it (the intra-node hops ride the faster
      // fabric).
      return layout.dp * layout.cp * layout.tp <= v.gpus_per_node
                 ? kIntra
                 : inter(layout.cp * layout.tp);
    case Dim::kTensor:
      if (layout.tp == 1) {
        return {};
      }
      return layout.tp <= v.gpus_per_node ? kIntra : inter(v.gpus_per_node);
  }
  MEPIPE_CHECK(false) << "unknown Dim";
  return {};
}

LinkSpec LinkOn(const FabricView& v, Dim dim, const ParallelLayout& layout, int host_stages) {
  const Route route = RouteOn(v, dim, layout, host_stages);
  switch (route.fabric) {
    case FabricClass::kLoopback:
      return Loopback();
    case FabricClass::kIntraNode:
      return *v.intra;
    default:
      return Shared(*v.inter, route.streams);
  }
}

FabricShareMap SharesOn(const FabricView& v, const ParallelLayout& layout, int host_stages) {
  FabricShareMap map;
  map.through_host_intra = v.intra->through_host;
  for (const Dim dim : {Dim::kPipeline, Dim::kContext, Dim::kData, Dim::kTensor}) {
    map.fabric[static_cast<int>(dim)] = RouteOn(v, dim, layout, host_stages).fabric;
  }
  return map;
}

// Stages tier `t` could host back to back; caps the NIC-contention
// condition when a tier holds only part of the pipeline.
int HostStages(const DeviceTier& t, const ParallelLayout& layout) {
  const int stride = layout.dp * layout.cp * layout.tp;
  return std::max(1, std::min(layout.pp, t.world_size() / std::max(1, stride)));
}

// Worse = slower for a representative 1 MiB message; ties break toward
// higher latency so the ordering is total and deterministic.
bool WorseLink(const LinkSpec& a, const LinkSpec& b) {
  constexpr Bytes kProbe = 1 << 20;
  const Seconds ta = a.transfer_time(kProbe);
  const Seconds tb = b.transfer_time(kProbe);
  if (ta != tb) {
    return ta > tb;
  }
  return a.latency > b.latency;
}

}  // namespace

ClusterSpec Rtx4090Cluster() {
  ClusterSpec c;
  c.gpu = Rtx4090();
  c.nodes = 8;
  c.gpus_per_node = 8;
  c.intra_node = Pcie4x16();
  c.inter_node = Infiniband100G();
  return c;
}

ClusterSpec A100Cluster() {
  ClusterSpec c;
  c.gpu = A100_80G();
  c.nodes = 4;
  c.gpus_per_node = 8;
  c.intra_node = NvLink3();
  c.inter_node = Infiniband800G();
  return c;
}

ClusterSpec DeviceTier::spec() const {
  ClusterSpec c;
  c.gpu = gpu;
  c.nodes = nodes;
  c.gpus_per_node = gpus_per_node;
  c.intra_node = intra_node;
  c.inter_node = inter_node;
  return c;
}

StagePlacement StagePlacement::Uniform(int stages, int tier) {
  MEPIPE_CHECK_GT(stages, 0);
  StagePlacement p;
  p.stage_tier.assign(static_cast<std::size_t>(stages), tier);
  return p;
}

bool StagePlacement::uniform() const {
  for (const int t : stage_tier) {
    if (t != stage_tier.front()) {
      return false;
    }
  }
  return true;
}

std::uint64_t StagePlacement::Hash() const {
  // SplitMix64-style order-sensitive mix, matching core/surrogate's Digest.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(stage_tier.size());
  for (const int t : stage_tier) {
    std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

std::string StagePlacement::ToString() const {
  std::string out;
  int run_tier = -1;
  int run_len = 0;
  char buf[32];
  const auto flush = [&] {
    if (run_len == 0) {
      return;
    }
    std::snprintf(buf, sizeof(buf), "t%dx%d", run_tier, run_len);
    if (!out.empty()) {
      out += '|';
    }
    out += buf;
  };
  for (const int t : stage_tier) {
    if (t == run_tier) {
      ++run_len;
      continue;
    }
    flush();
    run_tier = t;
    run_len = 1;
  }
  flush();
  return out.empty() ? "-" : out;
}

int ClusterTopology::world_size() const {
  int total = 0;
  for (const DeviceTier& t : tiers) {
    total += t.world_size();
  }
  return total;
}

void ClusterTopology::SetLinkBetween(int a, int b, TierLink link) {
  const int n = num_tiers();
  MEPIPE_CHECK(a >= 0 && a < n && b >= 0 && b < n && a != b);
  tier_links.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  tier_links[static_cast<std::size_t>(a) * n + b] = link;
  tier_links[static_cast<std::size_t>(b) * n + a] = std::move(link);
}

const TierLink& ClusterTopology::LinkBetween(int a, int b) const {
  const int n = num_tiers();
  MEPIPE_CHECK(a >= 0 && a < n && b >= 0 && b < n && a != b);
  MEPIPE_CHECK_EQ(static_cast<int>(tier_links.size()), n * n)
      << "inter-tier links not configured (SetLinkBetween)";
  const TierLink& link = tier_links[static_cast<std::size_t>(a) * n + b];
  MEPIPE_CHECK_GT(link.link.bandwidth, 0) << "no link between tiers " << a << " and " << b;
  return link;
}

int ClusterTopology::FastestTier() const {
  MEPIPE_CHECK(!tiers.empty());
  int best = 0;
  for (int i = 1; i < num_tiers(); ++i) {
    if (tiers[static_cast<std::size_t>(i)].gpu.sustained_matmul_flops() >
        tiers[static_cast<std::size_t>(best)].gpu.sustained_matmul_flops()) {
      best = i;
    }
  }
  return best;
}

double ClusterTopology::TierSlowdown(int i) const {
  const double fastest =
      tiers[static_cast<std::size_t>(FastestTier())].gpu.sustained_matmul_flops();
  const double mine = tier(i).gpu.sustained_matmul_flops();
  MEPIPE_CHECK_GT(mine, 0);
  return fastest / mine;
}

LinkSpec ClusterTopology::LinkForOnTier(Dim dim, const ParallelLayout& layout, int t) const {
  const DeviceTier& tr = tier(t);
  return LinkOn(ViewOf(tr), dim, layout, HostStages(tr, layout));
}

LinkSpec ClusterTopology::LinkFor(Dim dim, const ParallelLayout& layout) const {
  MEPIPE_CHECK(!tiers.empty());
  if (num_tiers() == 1) {
    MEPIPE_CHECK(dim != Dim::kPipeline || layout.ranks() == world_size())
        << "layout must cover the whole cluster";
    return LinkOn(ViewOf(tiers.front()), dim, layout, layout.pp);
  }
  if (dim == Dim::kPipeline) {
    if (layout.pp == 1) {
      return Loopback();
    }
    // Conservative fleet-wide summary: the slowest inter-tier link, shared
    // by the dp·cp·tp streams of one crossing stage boundary. Per-boundary
    // placement-aware pricing lives in CommModel::PipelineP2pAcross.
    const LinkSpec* worst = nullptr;
    for (int a = 0; a < num_tiers(); ++a) {
      for (int b = a + 1; b < num_tiers(); ++b) {
        const LinkSpec& l = LinkBetween(a, b).link;
        if (worst == nullptr || WorseLink(l, *worst)) {
          worst = &l;
        }
      }
    }
    return Shared(*worst, layout.dp * layout.cp * layout.tp);
  }
  // Intra-stage dimensions live inside one tier; report the worst tier's
  // mapping so fleet-wide estimates stay conservative.
  LinkSpec worst = LinkForOnTier(dim, layout, 0);
  for (int t = 1; t < num_tiers(); ++t) {
    LinkSpec candidate = LinkForOnTier(dim, layout, t);
    if (WorseLink(candidate, worst)) {
      worst = std::move(candidate);
    }
  }
  return worst;
}

FabricShareMap ClusterTopology::FabricShares(const ParallelLayout& layout) const {
  MEPIPE_CHECK(!tiers.empty());
  if (num_tiers() == 1) {
    return SharesOn(ViewOf(tiers.front()), layout, layout.pp);
  }
  FabricShareMap merged;
  for (int t = 0; t < num_tiers(); ++t) {
    const DeviceTier& tr = tier(t);
    const FabricShareMap map = SharesOn(ViewOf(tr), layout, HostStages(tr, layout));
    for (int d = 0; d < 4; ++d) {
      merged.fabric[d] = std::max(merged.fabric[d], map.fabric[d]);
    }
    merged.through_host_intra = merged.through_host_intra || map.through_host_intra;
  }
  if (layout.pp > 1) {
    // Some stage boundary may cross tiers; classify pipeline as WAN if any
    // inter-tier link is, else keep the per-tier class.
    for (const TierLink& l : tier_links) {
      if (l.wan && l.link.bandwidth > 0) {
        merged.fabric[static_cast<int>(Dim::kPipeline)] = FabricClass::kWan;
        break;
      }
    }
  }
  return merged;
}

std::vector<LayoutIssue> ParallelLayout::Validate(const ClusterTopology& topology) const {
  std::vector<LayoutIssue> issues;
  if (pp < 1 || dp < 1 || cp < 1 || tp < 1) {
    issues.push_back({LayoutIssue::Code::kEmptyLayout, -1,
                      "all layout factors must be >= 1"});
    return issues;
  }
  if (topology.num_tiers() == 1) {
    if (ranks() != topology.world_size()) {
      issues.push_back({LayoutIssue::Code::kWorldMismatch, 0,
                        "layout covers " + std::to_string(ranks()) + " ranks, cluster has " +
                            std::to_string(topology.world_size())});
    }
  } else {
    if (ranks() > topology.world_size()) {
      issues.push_back({LayoutIssue::Code::kRankOversubscription, -1,
                        "layout needs " + std::to_string(ranks()) + " ranks, fleet has " +
                            std::to_string(topology.world_size())});
    }
    const int group = dp * cp * tp;
    bool fits_somewhere = false;
    for (const DeviceTier& t : topology.tiers) {
      if (t.world_size() >= group) {
        fits_somewhere = true;
        break;
      }
    }
    if (!fits_somewhere) {
      issues.push_back({LayoutIssue::Code::kRankOversubscription, -1,
                        "stage group of " + std::to_string(group) +
                            " ranks exceeds every tier's capacity"});
    }
  }
  if (tp > 1) {
    bool any_premium = false;
    for (const DeviceTier& t : topology.tiers) {
      if (!t.consumer_fabric()) {
        any_premium = true;
        break;
      }
    }
    if (!any_premium) {
      issues.push_back({LayoutIssue::Code::kTensorParallelOnConsumerTier, -1,
                        "tp=" + std::to_string(tp) +
                            " but every tier has a through-host intra-node fabric"});
    }
  }
  return issues;
}

std::vector<LayoutIssue> ParallelLayout::Validate(const ClusterTopology& topology,
                                                  const StagePlacement& placement) const {
  std::vector<LayoutIssue> issues;
  if (pp < 1 || dp < 1 || cp < 1 || tp < 1) {
    issues.push_back({LayoutIssue::Code::kEmptyLayout, -1,
                      "all layout factors must be >= 1"});
    return issues;
  }
  if (placement.stages() != pp) {
    issues.push_back({LayoutIssue::Code::kPlacementShape, -1,
                      "placement names " + std::to_string(placement.stages()) +
                          " stages, layout has pp=" + std::to_string(pp)});
    return issues;
  }
  std::vector<int> stages_on(static_cast<std::size_t>(topology.num_tiers()), 0);
  for (const int t : placement.stage_tier) {
    if (t < 0 || t >= topology.num_tiers()) {
      issues.push_back({LayoutIssue::Code::kPlacementShape, t,
                        "placement references tier " + std::to_string(t) + " of " +
                            std::to_string(topology.num_tiers())});
      return issues;
    }
    ++stages_on[static_cast<std::size_t>(t)];
  }
  const int group = dp * cp * tp;
  for (int t = 0; t < topology.num_tiers(); ++t) {
    const int need = stages_on[static_cast<std::size_t>(t)] * group;
    if (need > topology.tier(t).world_size()) {
      issues.push_back({LayoutIssue::Code::kRankOversubscription, t,
                        "tier " + topology.tier(t).name + " hosts " +
                            std::to_string(stages_on[static_cast<std::size_t>(t)]) +
                            " stages needing " + std::to_string(need) + " ranks, has " +
                            std::to_string(topology.tier(t).world_size())});
    }
    if (tp > 1 && stages_on[static_cast<std::size_t>(t)] > 0 &&
        topology.tier(t).consumer_fabric()) {
      issues.push_back({LayoutIssue::Code::kTensorParallelOnConsumerTier, t,
                        "tp=" + std::to_string(tp) + " on consumer tier " +
                            topology.tier(t).name});
    }
  }
  return issues;
}

ClusterTopology CarveSubTopology(const ClusterTopology& fleet,
                                 const std::vector<TierSlice>& slices) {
  const int n = fleet.num_tiers();
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  ClusterTopology carved;
  std::vector<int> parent_tier;  // carved tier index -> fleet tier index
  for (const TierSlice& slice : slices) {
    MEPIPE_CHECK(slice.tier >= 0 && slice.tier < n)
        << "slice references tier " << slice.tier << " of " << n;
    MEPIPE_CHECK(!seen[static_cast<std::size_t>(slice.tier)])
        << "duplicate slice for tier " << slice.tier;
    seen[static_cast<std::size_t>(slice.tier)] = true;
    MEPIPE_CHECK_GE(slice.nodes, 0);
    if (slice.nodes == 0) {
      continue;
    }
    const DeviceTier& parent = fleet.tier(slice.tier);
    MEPIPE_CHECK_LE(slice.nodes, parent.nodes)
        << "slice wants " << slice.nodes << " nodes, tier " << parent.name << " has "
        << parent.nodes;
    DeviceTier t = parent;
    t.nodes = slice.nodes;
    carved.tiers.push_back(std::move(t));
    parent_tier.push_back(slice.tier);
  }
  MEPIPE_CHECK(!carved.tiers.empty()) << "carve selects no nodes";
  for (int a = 0; a < carved.num_tiers(); ++a) {
    for (int b = a + 1; b < carved.num_tiers(); ++b) {
      carved.SetLinkBetween(a, b, fleet.LinkBetween(parent_tier[static_cast<std::size_t>(a)],
                                                    parent_tier[static_cast<std::size_t>(b)]));
    }
  }
  return carved;
}

ClusterTopology SingleTierTopology(const ClusterSpec& spec, double usd_per_gpu_hour,
                                   std::string region, std::string name) {
  ClusterTopology topo;
  DeviceTier t;
  t.name = std::move(name);
  t.gpu = spec.gpu;
  t.nodes = spec.nodes;
  t.gpus_per_node = spec.gpus_per_node;
  t.intra_node = spec.intra_node;
  t.inter_node = spec.inter_node;
  t.usd_per_gpu_hour = usd_per_gpu_hour;
  t.region = std::move(region);
  topo.tiers.push_back(std::move(t));
  return topo;
}

DeviceTier Rtx4090Tier() {
  const ClusterSpec spec = Rtx4090Cluster();
  DeviceTier t;
  t.name = "rtx4090";
  t.gpu = spec.gpu;
  t.nodes = spec.nodes;
  t.gpus_per_node = spec.gpus_per_node;
  t.intra_node = spec.intra_node;
  t.inter_node = spec.inter_node;
  t.usd_per_gpu_hour = 0.35;
  t.region = "consumer-dc";
  return t;
}

DeviceTier A100Tier() {
  const ClusterSpec spec = A100Cluster();
  DeviceTier t;
  t.name = "a100";
  t.gpu = spec.gpu;
  t.nodes = spec.nodes;
  t.gpus_per_node = spec.gpus_per_node;
  t.intra_node = spec.intra_node;
  t.inter_node = spec.inter_node;
  t.usd_per_gpu_hour = 1.90;
  t.region = "premium-dc";
  return t;
}

TierLink WanLink(double gbps, double usd_per_gb) {
  TierLink l;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wan-%gG", gbps);
  l.link.name = buf;
  l.link.bandwidth = gbps * 1e9 / 8.0;  // effective bytes/s per direction
  l.link.latency = 15e-3;               // cross-region, ~30 ms RTT class
  l.link.through_host = true;           // WAN NICs DMA through the host
  l.usd_per_gb_egress = usd_per_gb;
  l.wan = true;
  return l;
}

TierLink LanLink(const LinkSpec& link) {
  TierLink l;
  l.link = link;
  l.usd_per_gb_egress = 0.0;
  l.wan = false;
  return l;
}

}  // namespace mepipe::hw
