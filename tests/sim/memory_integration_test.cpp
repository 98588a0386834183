/**
 * @file
 * Integration tests for the memory models inside the Cmp simulator:
 * the fixed model reproduces the paper's timing exactly, contention
 * degrades latency under memory-intensive colocations, and bandwidth
 * partitioning restores the latency-critical app's isolation.
 */

#include <gtest/gtest.h>

#include "sim/cmp.h"
#include "workload/batch_app.h"
#include "workload/lc_app.h"

namespace ubik {
namespace {

CmpConfig
baseCfg()
{
    CmpConfig cfg;
    cfg.llcLines = 24576;
    cfg.privateLinesPerCore = 4096;
    cfg.reconfigInterval = 2000000;
    cfg.policy = PolicyKind::StaticLc;
    return cfg;
}

LcAppSpec
lcSpec()
{
    LcAppSpec spec;
    spec.params = lc_presets::masstree().scaled(8.0);
    spec.meanInterarrival = 0; // closed loop: stable service times
    spec.roiRequests = 50;
    spec.warmupRequests = 10;
    spec.targetLines = 4096;
    spec.deadline = msToCycles(1.0);
    return spec;
}

std::vector<BatchAppSpec>
streamingBatch(int n)
{
    // Streaming apps miss constantly: the worst bandwidth hogs.
    std::vector<BatchAppSpec> batch;
    for (int i = 0; i < n; i++) {
        BatchAppSpec b;
        b.params = batch_presets::make(BatchClass::Streaming, static_cast<std::uint32_t>(i));
        b.params = b.params.scaled(8.0);
        batch.push_back(b);
    }
    return batch;
}

double
lcServiceMean(MemKind kind)
{
    CmpConfig cfg = baseCfg();
    cfg.mem = kind;
    cfg.memParams.channels = 1; // a scarce memory system
    cfg.memParams.channelOccupancy = 48;
    Cmp cmp(cfg, {lcSpec()}, streamingBatch(2), 7);
    cmp.run();
    return cmp.lcResult(0).serviceTimes.mean();
}

TEST(MemoryIntegration, FixedModelMatchesDefaultTiming)
{
    // MemKind::Fixed must reproduce the original simulator exactly:
    // the model returns zero extra delay on every miss.
    CmpConfig a = baseCfg();
    CmpConfig b = baseCfg();
    b.mem = MemKind::Fixed;
    b.memParams.channels = 1;
    b.memParams.channelOccupancy = 999; // irrelevant for Fixed
    Cmp ca(a, {lcSpec()}, streamingBatch(2), 11);
    Cmp cb(b, {lcSpec()}, streamingBatch(2), 11);
    ca.run();
    cb.run();
    EXPECT_DOUBLE_EQ(ca.lcResult(0).serviceTimes.mean(),
                     cb.lcResult(0).serviceTimes.mean());
    EXPECT_EQ(ca.batchResult(0).roiInstructions,
              cb.batchResult(0).roiInstructions);
}

TEST(MemoryIntegration, ContentionDegradesLcService)
{
    double fixed = lcServiceMean(MemKind::Fixed);
    double contended = lcServiceMean(MemKind::Contended);
    // Streaming batch apps saturate the single channel; the LC app's
    // misses now queue, inflating its service time.
    EXPECT_GT(contended, fixed * 1.02);
}

TEST(MemoryIntegration, BandwidthPartitioningRestoresIsolation)
{
    double fixed = lcServiceMean(MemKind::Fixed);
    double contended = lcServiceMean(MemKind::Contended);
    // The LC app (core 0) gets strict priority; the two streaming
    // hogs split the other half of the bandwidth, a quarter each.
    double partitioned = lcServiceMean(MemKind::Partitioned);
    EXPECT_LT(partitioned, contended);
    EXPECT_GT(partitioned, fixed * 0.99); // cannot beat no contention
}

TEST(MemoryIntegration, PartitionedSharesFollowTheCoreRoles)
{
    // The LC cores run unregulated; the batch cores split the half of
    // the bandwidth the LC cores leave.
    CmpConfig cfg = baseCfg();
    cfg.mem = MemKind::Partitioned;
    Cmp cmp(cfg, {lcSpec(), lcSpec()}, streamingBatch(3), 5);
    const auto &pm =
        dynamic_cast<const PartitionedMemory &>(cmp.memory());
    EXPECT_TRUE(pm.unregulated(0));
    EXPECT_TRUE(pm.unregulated(1));
    for (AppId c = 2; c < 5; c++) {
        EXPECT_FALSE(pm.unregulated(c));
        EXPECT_EQ(pm.share(c), 0.5 / 3);
    }
}

TEST(MemoryIntegration, MemoryStatsExposedThroughCmp)
{
    CmpConfig cfg = baseCfg();
    cfg.mem = MemKind::Contended;
    cfg.memParams.channels = 2;
    Cmp cmp(cfg, {lcSpec()}, streamingBatch(2), 3);
    cmp.run();
    const MemorySystem &mem = cmp.memory();
    EXPECT_NE(dynamic_cast<const ContendedMemory *>(&mem), nullptr);
    EXPECT_GT(mem.requests(), 0u);
    EXPECT_GT(mem.utilization(cmp.now()), 0.0);
    // Streaming apps (cores 1, 2) dominate memory traffic.
    EXPECT_GT(mem.appStats(1).requests, mem.appStats(0).requests);
}

TEST(MemoryIntegration, DeterministicUnderContention)
{
    auto run = [] {
        CmpConfig cfg = baseCfg();
        cfg.mem = MemKind::Contended;
        cfg.memParams.channels = 1;
        Cmp cmp(cfg, {lcSpec()}, streamingBatch(2), 99);
        cmp.run();
        return cmp.lcResult(0).serviceTimes.mean();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

} // namespace
} // namespace ubik
