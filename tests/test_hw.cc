// Tests for the hardware substrate: GPU/link presets, cluster link
// mapping, collective cost model, operator-efficiency calibration.
#include <gtest/gtest.h>

#include "hw/cluster.h"
#include "hw/comm_model.h"
#include "hw/efficiency.h"
#include "hw/gpu.h"
#include "hw/interconnect.h"
#include "model/transformer.h"

namespace mepipe::hw {
namespace {

TEST(Gpu, PresetsMatchTable9) {
  const GpuSpec rtx = Rtx4090();
  EXPECT_EQ(rtx.memory_capacity, 24 * kGiB);
  EXPECT_DOUBLE_EQ(rtx.peak_flops, 330e12);
  EXPECT_DOUBLE_EQ(rtx.server_price_usd, 30000);
  const GpuSpec a100 = A100_80G();
  EXPECT_EQ(a100.memory_capacity, 80 * kGiB);
  EXPECT_DOUBLE_EQ(a100.peak_flops, 312e12);
  EXPECT_DOUBLE_EQ(a100.server_price_usd, 150000);
}

TEST(Gpu, Fp32AccumulationPenaltyHalves4090) {
  // §7.6: a single RTX 4090 reaches roughly half an A100's GEMM rate.
  const double rtx = Rtx4090().sustained_matmul_flops();
  const double a100 = A100_80G().sustained_matmul_flops();
  EXPECT_NEAR(rtx / a100, 0.53, 0.08);
}

TEST(Gpu, UsableMemoryBelowCapacity) {
  EXPECT_LT(Rtx4090().usable_memory(), Rtx4090().memory_capacity);
  EXPECT_GT(Rtx4090().usable_memory(), 20 * kGiB);
}

TEST(Link, TransferTimeIncludesLatency) {
  const LinkSpec link{"x", 10e9, Microseconds(20)};
  EXPECT_DOUBLE_EQ(link.transfer_time(0), Microseconds(20));
  EXPECT_NEAR(link.transfer_time(10'000'000), 0.001 + 20e-6, 1e-12);
}

TEST(Cluster, PresetsMatchPaperTestbeds) {
  const ClusterSpec rtx = Rtx4090Cluster();
  EXPECT_EQ(rtx.world_size(), 64);
  EXPECT_EQ(rtx.gpus_per_node, 8);
  const ClusterSpec a100 = A100Cluster();
  EXPECT_EQ(a100.world_size(), 32);
  EXPECT_GT(a100.intra_node.bandwidth, rtx.intra_node.bandwidth * 5);
}

TEST(Cluster, PipelineCrossesNodesAtPp8) {
  // pp=8 on 8 nodes: every boundary crosses nodes; 8 streams share a NIC.
  const ClusterSpec cluster = Rtx4090Cluster();
  const LinkSpec link = SingleTierTopology(cluster).LinkFor(Dim::kPipeline, {8, 4, 2, 1});
  EXPECT_NEAR(link.bandwidth, cluster.inter_node.bandwidth / 8.0, 1.0);
}

TEST(Cluster, PipelineLoopbackAtPp1) {
  const ClusterSpec cluster = Rtx4090Cluster();
  const LinkSpec link = SingleTierTopology(cluster).LinkFor(Dim::kPipeline, {1, 64, 1, 1});
  EXPECT_GT(link.bandwidth, 1e14);
}

TEST(Cluster, CpGroupsStayIntraNode) {
  const ClusterSpec cluster = Rtx4090Cluster();
  const LinkSpec link = SingleTierTopology(cluster).LinkFor(Dim::kContext, {8, 2, 4, 1});
  EXPECT_EQ(link.name, cluster.intra_node.name);
}

TEST(Cluster, SmallDpGroupsStayIntraNode) {
  const ClusterSpec cluster = Rtx4090Cluster();
  const ClusterTopology topology = SingleTierTopology(cluster);
  EXPECT_EQ(topology.LinkFor(Dim::kData, {8, 8, 1, 1}).name, cluster.intra_node.name);
  EXPECT_EQ(topology.LinkFor(Dim::kData, {8, 4, 2, 1}).name, cluster.intra_node.name);
}

TEST(Cluster, LargeDpGroupsShareNicByInterleavedRings) {
  const ClusterSpec cluster = Rtx4090Cluster();
  // dp=16, cp=2: the 16·2-rank block spans nodes; 2 rings share the NIC.
  const LinkSpec link = SingleTierTopology(cluster).LinkFor(Dim::kData, {2, 16, 2, 1});
  EXPECT_NEAR(link.bandwidth, cluster.inter_node.bandwidth / 2.0, 1.0);
}

TEST(Comm, RingAllReduceFormula) {
  const LinkSpec link{"x", 10e9, 0.0};
  // 2(g-1)/g · bytes / bw.
  EXPECT_NEAR(CommModel::AllReduce(10e9, 4, link), 2.0 * 3.0 / 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(CommModel::AllReduce(123, 1, link), 0.0);
}

TEST(Comm, AllGatherAndReduceScatterMatch) {
  const LinkSpec link{"x", 10e9, 0.0};
  EXPECT_DOUBLE_EQ(CommModel::AllGather(8e9, 8, link),
                   CommModel::ReduceScatter(8e9, 8, link));
  EXPECT_NEAR(CommModel::AllGather(8e9, 8, link), 0.7, 1e-9);
}

TEST(Comm, CpExchangeGrowsWithCp) {
  const CommModel comm(Rtx4090Cluster());
  const auto config = model::Llama13B();
  const Seconds cp2 = comm.CpKvExchangePerLayer(config, 2048, {8, 4, 2, 1});
  const Seconds cp4 = comm.CpKvExchangePerLayer(config, 1024, {8, 2, 4, 1});
  EXPECT_GT(cp2, 0);
  EXPECT_GT(cp4, cp2);  // more rounds despite smaller blocks
  EXPECT_DOUBLE_EQ(comm.CpKvExchangePerLayer(config, 4096, {8, 8, 1, 1}), 0.0);
}

TEST(Comm, DpSyncZeroWithoutReplication) {
  const CommModel comm(Rtx4090Cluster());
  EXPECT_DOUBLE_EQ(comm.DpGradientSync(1 * kGiB, {64, 1, 1, 1}), 0.0);
  EXPECT_GT(comm.DpGradientSync(1 * kGiB, {8, 8, 1, 1}), 0.0);
}

TEST(Comm, TpAllReducePerLayer) {
  const CommModel comm(A100Cluster());
  const auto config = model::Llama13B();
  EXPECT_GT(comm.TpAllReducePerLayer(config, 4096, {4, 1, 1, 8}), 0.0);
  EXPECT_DOUBLE_EQ(comm.TpAllReducePerLayer(config, 4096, {4, 8, 1, 1}), 0.0);
}

TEST(Efficiency, CalibratedToFigure9) {
  // §7.3: Llama 13B transformer layer slows ~12.6% from SPP=1 to SPP=8.
  const EfficiencyModel eff;
  const double full = eff.ShapeEfficiency(5120, 4096);
  const double sliced = eff.ShapeEfficiency(5120, 512);
  EXPECT_NEAR(full / sliced, 1.126, 0.02);
}

TEST(Efficiency, MonotoneInTokens) {
  const EfficiencyModel eff;
  double previous = 0;
  for (std::int64_t t : {128, 256, 512, 1024, 2048, 4096}) {
    const double e = eff.ShapeEfficiency(5120, t);
    EXPECT_GT(e, previous);
    EXPECT_LE(e, 1.0);
    previous = e;
  }
}

TEST(Efficiency, NarrowerModelsDegradeFaster) {
  const EfficiencyModel eff;
  EXPECT_LT(eff.ShapeEfficiency(4096, 512), eff.ShapeEfficiency(8192, 512));
}

TEST(Efficiency, KernelTimeScalesInverselyWithEfficiency) {
  const EfficiencyModel eff;
  const auto config = model::Llama13B();
  const GpuSpec gpu = Rtx4090();
  const Seconds big = eff.KernelTime(1e12, gpu, config, 4096);
  const Seconds small = eff.KernelTime(1e12, gpu, config, 256);
  EXPECT_GT(small, big);
  EXPECT_DOUBLE_EQ(eff.KernelTime(0, gpu, config, 256), 0.0);
}

}  // namespace
}  // namespace mepipe::hw
