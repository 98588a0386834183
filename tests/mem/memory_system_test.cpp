/**
 * @file
 * Unit and property tests for the memory timing models (src/mem/):
 * the paper-faithful fixed-latency model, contended channels, and the
 * token-bucket bandwidth partitioner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/memory_system.h"

namespace ubik {
namespace {

MemoryParams
params(std::uint32_t channels, Cycles occ)
{
    MemoryParams p;
    p.channels = channels;
    p.channelOccupancy = occ;
    return p;
}

TEST(FixedLatencyMemory, NeverAddsDelay)
{
    FixedLatencyMemory mem(params(3, 24), 2);
    for (Cycles t = 0; t < 1000; t += 7) {
        EXPECT_EQ(mem.access(0, t), 0u);
        EXPECT_EQ(mem.access(1, t), 0u);
    }
    EXPECT_EQ(mem.appStats(0).totalQueueing, 0u);
    EXPECT_EQ(mem.appStats(1).maxQueueing, 0u);
}

TEST(FixedLatencyMemory, CountsRequestsPerApp)
{
    FixedLatencyMemory mem(params(1, 10), 3);
    mem.access(0, 0);
    mem.access(2, 5);
    mem.access(2, 9);
    EXPECT_EQ(mem.appStats(0).requests, 1u);
    EXPECT_EQ(mem.appStats(1).requests, 0u);
    EXPECT_EQ(mem.appStats(2).requests, 2u);
    EXPECT_EQ(mem.requests(), 3u);
}

TEST(FixedLatencyMemory, UtilizationTracksOfferedBandwidth)
{
    FixedLatencyMemory mem(params(2, 10), 1);
    // 10 misses x 10 busy cycles = 100 busy, capacity 2 x 1000.
    for (int i = 0; i < 10; i++)
        mem.access(0, static_cast<Cycles>(i * 100));
    EXPECT_DOUBLE_EQ(mem.utilization(1000), 100.0 / 2000.0);
    EXPECT_DOUBLE_EQ(mem.utilization(0), 0.0);
}

TEST(ContendedMemory, UncontendedAccessIsFree)
{
    ContendedMemory mem(params(1, 20), 1);
    EXPECT_EQ(mem.access(0, 100), 0u);
    // Next access after the channel freed: also free.
    EXPECT_EQ(mem.access(0, 121), 0u);
}

TEST(ContendedMemory, BackToBackAccessesQueueOnOneChannel)
{
    ContendedMemory mem(params(1, 20), 1);
    EXPECT_EQ(mem.access(0, 0), 0u);   // occupies [0, 20)
    EXPECT_EQ(mem.access(0, 0), 20u);  // waits until 20
    EXPECT_EQ(mem.access(0, 0), 40u);  // waits until 40
    EXPECT_EQ(mem.appStats(0).maxQueueing, 40u);
}

TEST(ContendedMemory, BurstSpreadsAcrossChannels)
{
    ContendedMemory mem(params(3, 30), 1);
    // First three simultaneous misses find free channels.
    EXPECT_EQ(mem.access(0, 0), 0u);
    EXPECT_EQ(mem.access(0, 0), 0u);
    EXPECT_EQ(mem.access(0, 0), 0u);
    // The fourth waits for the earliest channel to free.
    EXPECT_EQ(mem.access(0, 0), 30u);
    EXPECT_EQ(mem.access(0, 0), 30u);
    EXPECT_EQ(mem.access(0, 0), 30u);
    EXPECT_EQ(mem.access(0, 0), 60u);
}

TEST(ContendedMemory, IdlePeriodsDrainTheQueue)
{
    ContendedMemory mem(params(1, 10), 1);
    mem.access(0, 0);
    mem.access(0, 0);
    // Long gap: the backlog has drained, no residual delay.
    EXPECT_EQ(mem.access(0, 1000), 0u);
}

TEST(ContendedMemory, DelayMonotonicInLoadProperty)
{
    // Issue N misses over a fixed window; mean queueing must be
    // non-decreasing in N (an M/D/c-like property).
    double prev = -1.0;
    for (std::uint64_t n : {10u, 50u, 100u, 200u, 400u}) {
        ContendedMemory mem(params(2, 16), 1);
        const Cycles window = 3200;
        for (std::uint64_t i = 0; i < n; i++)
            mem.access(0, i * window / n);
        double mean = mem.appStats(0).meanQueueing();
        EXPECT_GE(mean, prev);
        prev = mean;
    }
}

TEST(ContendedMemory, RejectsZeroChannels)
{
    EXPECT_EXIT(ContendedMemory(params(0, 10), 1),
                testing::ExitedWithCode(1), "channel");
}

TEST(ContendedMemory, RejectsZeroOccupancy)
{
    EXPECT_EXIT(ContendedMemory(params(2, 0), 1),
                testing::ExitedWithCode(1), "occupancy");
}

TEST(PartitionedMemory, DefaultsToEqualShares)
{
    PartitionedMemory mem(params(4, 20), 4);
    for (AppId a = 0; a < 4; a++)
        EXPECT_DOUBLE_EQ(mem.share(a), 0.25);
}

TEST(PartitionedMemory, SpacingMatchesShare)
{
    PartitionedMemory mem(params(2, 20), 2);
    // Total service rate: 2 channels / 20 cycles = 0.1 misses/cycle.
    mem.setShare(0, 0.5); // 0.05/cycle -> 20-cycle spacing
    mem.setShare(1, 0.1); // 0.01/cycle -> 100-cycle spacing
    EXPECT_EQ(mem.spacing(0), 20u);
    EXPECT_EQ(mem.spacing(1), 100u);
}

TEST(PartitionedMemory, RegulatorEnforcesSpacing)
{
    PartitionedMemory mem(params(2, 20), 2);
    mem.setShare(0, 0.5);
    // Back-to-back misses at cycle 0: each is pushed to its slot.
    EXPECT_EQ(mem.access(0, 0), 0u);
    Cycles d1 = mem.access(0, 0);
    Cycles d2 = mem.access(0, 0);
    EXPECT_GE(d1, mem.spacing(0));
    EXPECT_GE(d2, 2 * mem.spacing(0));
    EXPECT_GT(mem.appStats(0).totalThrottle, 0u);
}

TEST(PartitionedMemory, WellSpacedTrafficIsNotThrottled)
{
    PartitionedMemory mem(params(2, 20), 2);
    mem.setShare(0, 0.5);
    Cycles t = 0;
    for (int i = 0; i < 50; i++) {
        EXPECT_EQ(mem.access(0, t), 0u);
        t += mem.spacing(0) + 1;
    }
    EXPECT_EQ(mem.appStats(0).totalThrottle, 0u);
}

TEST(PartitionedMemory, IsolatesVictimFromHog)
{
    // App 0 hammers memory (closed loop, 5-cycle think time); app 1
    // issues sparse misses. Cores block on each miss, so each app has
    // at most one miss outstanding — exactly how Cmp drives the
    // model. Under plain contention the hog keeps the single channel
    // nearly always busy and the victim queues behind it; with
    // bandwidth partitioning the hog is regulated to its share and
    // the victim's queueing shrinks.
    auto run = [](bool partitioned) {
        MemoryParams p = params(1, 20);
        std::unique_ptr<MemorySystem> mem;
        if (partitioned) {
            auto pm = std::make_unique<PartitionedMemory>(p, 2);
            pm->setShare(0, 0.5);     // hog: regulated to half
            pm->setUnregulated(1);    // victim: strict priority
            mem = std::move(pm);
        } else {
            mem = std::make_unique<ContendedMemory>(p, 2);
        }
        const Cycles horizon = 100000;
        Cycles next[2] = {0, 0};
        const Cycles gap[2] = {5, 400};
        while (true) {
            AppId a = next[0] <= next[1] ? 0 : 1;
            if (next[a] >= horizon)
                break;
            // Think time + contention only: a deep-MLP app overlaps
            // the base latency, so it does not gate the issue rate.
            Cycles delay = mem->access(a, next[a]);
            next[a] += gap[a] + delay;
        }
        return mem->appStats(1).meanQueueing();
    };
    double shared = run(false);
    double isolated = run(true);
    EXPECT_GT(shared, isolated);
    EXPECT_LT(isolated, 20.0); // bounded below one occupancy
}

TEST(PartitionedMemory, UnregulatedAppBypassesRegulator)
{
    PartitionedMemory mem(params(1, 20), 2);
    mem.setUnregulated(0);
    EXPECT_TRUE(mem.unregulated(0));
    EXPECT_FALSE(mem.unregulated(1));
    // Back-to-back misses: contention delay only, no throttle.
    mem.access(0, 0);
    mem.access(0, 0);
    mem.access(0, 0);
    EXPECT_EQ(mem.appStats(0).totalThrottle, 0u);
    EXPECT_EQ(mem.appStats(0).totalQueueing, 20u + 40u);
}

TEST(PartitionedMemory, SetShareReenablesRegulation)
{
    PartitionedMemory mem(params(1, 20), 1);
    mem.setUnregulated(0);
    mem.setShare(0, 0.5);
    EXPECT_FALSE(mem.unregulated(0));
}

TEST(PartitionedMemory, PriorityAppRidesGapsPastFutureBookings)
{
    // A regulated hog books slots in the (near) future. An
    // unregulated app arriving in an idle gap must use the channel
    // now instead of queueing behind those reservations.
    PartitionedMemory mem(params(1, 20), 2);
    mem.setShare(0, 0.25); // spacing 80
    mem.setUnregulated(1);
    mem.access(0, 0);  // channel [0, 20)
    mem.access(0, 21); // allowed at 80 -> channel [80, 100)
    // Gap [21+20, 80) is idle; priority app at 40 fits [40, 60).
    EXPECT_EQ(mem.access(1, 40), 0u);
}

TEST(PartitionedMemory, RejectsBadShares)
{
    PartitionedMemory mem(params(2, 20), 2);
    EXPECT_EXIT(mem.setShare(0, 0.0), testing::ExitedWithCode(1), "share");
    EXPECT_EXIT(mem.setShare(0, 1.5), testing::ExitedWithCode(1), "share");
    EXPECT_EXIT(mem.setShare(7, 0.5), testing::ExitedWithCode(1),
                "out of range");
}

TEST(MemorySystemFactory, MakesEveryKind)
{
    auto f = makeMemorySystem(MemKind::Fixed, params(2, 10), 2);
    auto c = makeMemorySystem(MemKind::Contended, params(2, 10), 2);
    auto p = makeMemorySystem(MemKind::Partitioned, params(2, 10), 2);
    EXPECT_NE(dynamic_cast<FixedLatencyMemory *>(f.get()), nullptr);
    EXPECT_NE(dynamic_cast<ContendedMemory *>(c.get()), nullptr);
    EXPECT_EQ(dynamic_cast<PartitionedMemory *>(c.get()), nullptr);
    EXPECT_NE(dynamic_cast<PartitionedMemory *>(p.get()), nullptr);
    EXPECT_STREQ(enumName(MemKind::Contended), "contended");
}

TEST(MemorySystemFactory, Deterministic)
{
    // Same access pattern -> identical delays, across instances.
    auto drive = [](MemorySystem &mem) {
        std::vector<Cycles> delays;
        for (Cycles t = 0; t < 500; t += 3)
            delays.push_back(mem.access(t % 2, t));
        return delays;
    };
    ContendedMemory a(params(2, 17), 2), b(params(2, 17), 2);
    EXPECT_EQ(drive(a), drive(b));
}

/** Sweep channel counts and occupancies: capacity conservation. */
class ContentionSweep
    : public testing::TestWithParam<std::tuple<std::uint32_t, Cycles>>
{
};

TEST_P(ContentionSweep, ThroughputNeverExceedsCapacity)
{
    auto [channels, occ] = GetParam();
    ContendedMemory mem(params(channels, occ), 1);
    // Saturate: issue far more misses than capacity over the window.
    const Cycles window = 10000;
    std::uint64_t issued = 4 * channels * window / occ;
    Cycles last_start = 0;
    for (std::uint64_t i = 0; i < issued; i++) {
        Cycles t = i * window / issued;
        last_start = std::max(last_start, t + mem.access(0, t));
    }
    // All requests complete by roughly issued/service_rate.
    double service_rate =
        static_cast<double>(channels) / static_cast<double>(occ);
    double ideal_makespan = static_cast<double>(issued) / service_rate;
    EXPECT_GE(static_cast<double>(last_start + occ),
              ideal_makespan * 0.99);
    EXPECT_LE(static_cast<double>(last_start),
              ideal_makespan * 1.01 + static_cast<double>(window));
    EXPECT_NEAR(mem.utilization(last_start + occ), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ContentionSweep,
    testing::Combine(testing::Values(1u, 2u, 4u),
                     testing::Values<Cycles>(8, 24, 48)));

} // namespace
} // namespace ubik
