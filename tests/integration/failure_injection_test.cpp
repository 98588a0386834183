/**
 * @file
 * Failure-injection and edge-case tests: adversarial configurations
 * a downstream user will eventually feed the simulator. Each test
 * documents the intended behavior — run to completion with sane
 * metrics, or fail fast with a clear fatal() — never hang, crash, or
 * corrupt results.
 */

#include <gtest/gtest.h>

#include "sim/cmp.h"
#include "workload/batch_app.h"
#include "workload/lc_app.h"

namespace ubik {
namespace {

CmpConfig
smallCfg(PolicyKind policy = PolicyKind::Ubik)
{
    CmpConfig cfg;
    cfg.llcLines = 24576;
    cfg.privateLinesPerCore = 4096;
    cfg.reconfigInterval = 2000000;
    cfg.policy = policy;
    cfg.ubik.slack = 0.05;
    return cfg;
}

LcAppSpec
lcSpec(std::uint64_t target = 4096, Cycles deadline = msToCycles(1.0))
{
    LcAppSpec spec;
    spec.params = lc_presets::specjbb().scaled(8.0);
    spec.meanInterarrival = 0;
    spec.roiRequests = 30;
    spec.warmupRequests = 5;
    spec.targetLines = target;
    spec.deadline = deadline;
    return spec;
}

std::vector<BatchAppSpec>
someBatch(int n)
{
    std::vector<BatchAppSpec> batch;
    for (int i = 0; i < n; i++) {
        BatchAppSpec b;
        b.params = batch_presets::make(
                       static_cast<BatchClass>(i % 4),
                       static_cast<std::uint32_t>(i))
                       .scaled(8.0);
        batch.push_back(b);
    }
    return batch;
}

TEST(FailureInjection, ZeroDeadlineFallsBackToStaticBehavior)
{
    // Deadline 0 makes every Ubik downsizing option infeasible; the
    // app must keep its target allocation and still complete.
    CmpConfig cfg = smallCfg();
    Cmp cmp(cfg, {lcSpec(4096, 0)}, someBatch(2), 1);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u);
}

TEST(FailureInjection, AbsurdlyLongDeadlineIsSafe)
{
    CmpConfig cfg = smallCfg();
    Cmp cmp(cfg, {lcSpec(4096, msToCycles(10000.0))}, someBatch(2), 1);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u);
}

TEST(FailureInjection, TargetEqualToWholeCacheStillRuns)
{
    // The LC target swallows the entire LLC; batch apps must still
    // make progress (policies keep a minimum bucket per partition).
    CmpConfig cfg = smallCfg();
    Cmp cmp(cfg, {lcSpec(24576)}, someBatch(2), 2);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u);
    EXPECT_GT(cmp.batchResult(0).roiInstructions, 0u);
    EXPECT_GT(cmp.batchResult(1).roiInstructions, 0u);
}

TEST(FailureInjection, SingleLcAppAloneUnderEveryPolicy)
{
    for (PolicyKind policy :
         {PolicyKind::Lru, PolicyKind::Ucp, PolicyKind::StaticLc,
          PolicyKind::OnOff, PolicyKind::Ubik, PolicyKind::Feedback}) {
        CmpConfig cfg = smallCfg(policy);
        Cmp cmp(cfg, {lcSpec()}, {}, 3);
        cmp.run();
        EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u)
            << enumName(policy);
    }
}

TEST(FailureInjection, BatchOnlyMixUnderUcp)
{
    CmpConfig cfg = smallCfg(PolicyKind::Ucp);
    Cmp cmp(cfg, {}, someBatch(3), 4);
    cmp.run();
    for (std::uint32_t i = 0; i < 3; i++)
        EXPECT_GT(cmp.batchResult(i).ipc(), 0.0);
}

TEST(FailureInjection, OverloadedServerStillTerminates)
{
    // Offered load far beyond capacity: the queue grows, latencies
    // blow up, but the fixed-work run still completes and queueing
    // delay dominates service time.
    CmpConfig cfg = smallCfg();
    LcAppSpec spec = lcSpec();
    spec.meanInterarrival = 1000; // absurdly fast arrivals
    Cmp cmp(cfg, {spec}, someBatch(2), 5);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u);
    EXPECT_GT(cmp.lcResult(0).latencies.mean(),
              2.0 * cmp.lcResult(0).serviceTimes.mean());
}

TEST(FailureInjection, TinyCacheDoesNotUnderflow)
{
    CmpConfig cfg = smallCfg();
    cfg.llcLines = 1024; // 64KB: smaller than any working set
    Cmp cmp(cfg, {lcSpec(256)}, someBatch(2), 6);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u);
    // Everything misses a lot, but accounting stays consistent.
    EXPECT_LE(cmp.lcResult(0).misses, cmp.lcResult(0).accesses);
}

TEST(FailureInjection, MaxCyclesCapStopsRunawayRuns)
{
    CmpConfig cfg = smallCfg();
    cfg.maxCycles = 100000; // far too short to finish
    LcAppSpec spec = lcSpec();
    spec.roiRequests = 100000;
    Cmp cmp(cfg, {spec}, someBatch(2), 7);
    cmp.run(); // must return (with a warning), not spin forever
    EXPECT_LE(cmp.now(), 100000u + cfg.reconfigInterval);
    EXPECT_LT(cmp.lcResult(0).latencies.count(), 100000u);
}

TEST(FailureInjection, ExtremeButLegalSlackStaysWithinCache)
{
    CmpConfig cfg = smallCfg();
    cfg.ubik.slack = 0.9; // far beyond the paper's 10%, still legal
    Cmp cmp(cfg, {lcSpec()}, someBatch(2), 8);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u);
}

TEST(FailureInjection, SlackOfOneOrMoreIsFatal)
{
    // 100% slack would mean "any tail is fine" — the controller's
    // math divides by (1 - slack), so reject it loudly.
    CmpConfig cfg = smallCfg();
    cfg.ubik.slack = 1.0;
    EXPECT_EXIT(Cmp(cfg, {lcSpec()}, someBatch(2), 8),
                testing::ExitedWithCode(1), "slack");
}

TEST(FailureInjection, WayPartitioningOnZCacheIsFatal)
{
    CmpConfig cfg = smallCfg();
    cfg.scheme = SchemeKind::WayPart;
    cfg.array = ArrayKind::Z4_52;
    EXPECT_EXIT(Cmp(cfg, {lcSpec()}, someBatch(2), 9),
                testing::ExitedWithCode(1), "way-partitioning");
}

TEST(FailureInjection, EmptyMixIsRejected)
{
    CmpConfig cfg = smallCfg();
    EXPECT_DEATH(Cmp(cfg, {}, {}, 10), "assert");
}

TEST(FailureInjection, ClosedLoopIgnoresCoalescing)
{
    // Closed-loop apps never idle, so the interrupt-coalescing path
    // must not add latency or deadlock the event loop.
    CmpConfig cfg = smallCfg();
    cfg.coalesceCycles = 1000000000; // pathological timeout
    Cmp cmp(cfg, {lcSpec()}, someBatch(2), 11);
    cmp.run();
    EXPECT_NEAR(cmp.lcResult(0).latencies.mean(),
                cmp.lcResult(0).serviceTimes.mean(), 1.0);
}

TEST(FailureInjection, AllLcMixUnderUbik)
{
    // Six LC instances, no batch apps: boost caps must prevent the
    // LC apps from starving each other.
    CmpConfig cfg = smallCfg();
    std::vector<LcAppSpec> lcs(6, lcSpec(4096));
    Cmp cmp(cfg, lcs, {}, 12);
    cmp.run();
    for (std::uint32_t i = 0; i < 6; i++)
        EXPECT_EQ(cmp.lcResult(i).latencies.count(), 30u);
}

TEST(FailureInjection, ReconfigIntervalLongerThanRun)
{
    // The policy never reconfigures after construction; initial
    // conservative targets must carry the whole run.
    CmpConfig cfg = smallCfg();
    cfg.reconfigInterval = static_cast<Cycles>(1) << 60;
    Cmp cmp(cfg, {lcSpec()}, someBatch(2), 13);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 30u);
}

} // namespace
} // namespace ubik
