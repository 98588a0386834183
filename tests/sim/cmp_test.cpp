/**
 * @file
 * Tests for the Cmp event-loop simulator: request lifecycle, queueing,
 * idle/active transitions, ROI accounting, determinism, and the
 * instrumentation the figures rely on.
 */

#include <gtest/gtest.h>

#include "sim/cmp.h"
#include "workload/lc_app.h"

namespace ubik {
namespace {

LcAppParams
smallLc()
{
    LcAppParams p = lc_presets::specjbb().scaled(8.0);
    return p;
}

CmpConfig
smallCfg()
{
    CmpConfig cfg;
    cfg.llcLines = 24576;
    cfg.privateLinesPerCore = 4096;
    cfg.reconfigInterval = 2000000;
    return cfg;
}

TEST(Cmp, ClosedLoopCompletesExactRequests)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.meanInterarrival = 0;
    spec.roiRequests = 60;
    spec.warmupRequests = 10;
    spec.targetLines = 4096;
    Cmp cmp(cfg, {spec}, {}, 1);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 60u);
    EXPECT_EQ(cmp.lcResult(0).serviceTimes.count(), 60u);
    EXPECT_GT(cmp.lcResult(0).roiEndCycle, 0u);
}

TEST(Cmp, ClosedLoopLatencyEqualsService)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.meanInterarrival = 0;
    spec.roiRequests = 40;
    spec.warmupRequests = 5;
    spec.targetLines = 4096;
    Cmp cmp(cfg, {spec}, {}, 2);
    cmp.run();
    // Closed loop: no queueing, so latency == service time.
    EXPECT_NEAR(cmp.lcResult(0).latencies.mean(),
                cmp.lcResult(0).serviceTimes.mean(), 1.0);
}

TEST(Cmp, OpenLoopLatencyIncludesQueueing)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;

    auto run_at_load = [&](double load_interarrival_factor) {
        LcAppSpec spec;
        spec.params = smallLc();
        // First find the service time via closed loop.
        spec.meanInterarrival = 0;
        spec.roiRequests = 40;
        spec.warmupRequests = 10;
        spec.targetLines = 4096;
        Cmp cal(cfg, {spec}, {}, 3);
        cal.run();
        double mu = cal.lcResult(0).serviceTimes.mean();
        spec.meanInterarrival = mu * load_interarrival_factor;
        Cmp cmp(cfg, {spec}, {}, 3);
        cmp.run();
        return cmp.lcResult(0).latencies.mean() -
               cmp.lcResult(0).serviceTimes.mean();
    };

    double q_low = run_at_load(5.0);  // ~20% load
    double q_high = run_at_load(1.3); // ~77% load
    // Queueing delay grows sharply with load (Fig 1a's premise).
    EXPECT_GT(q_high, q_low);
}

TEST(Cmp, OpenLoopLatencyIncludesCoalescing)
{
    // At very low load every request arrives to an idle server and
    // pays the 50us interrupt-coalescing delay on top of service.
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.meanInterarrival = 0;
    spec.roiRequests = 30;
    spec.warmupRequests = 5;
    spec.targetLines = 4096;
    Cmp cal(cfg, {spec}, {}, 4);
    cal.run();
    double mu = cal.lcResult(0).serviceTimes.mean();

    spec.meanInterarrival = mu * 50; // ~2% load: always idle arrival
    Cmp cmp(cfg, {spec}, {}, 4);
    cmp.run();
    double extra = cmp.lcResult(0).latencies.mean() -
                   cmp.lcResult(0).serviceTimes.mean();
    EXPECT_GE(extra, 0.9 * static_cast<double>(cfg.coalesceCycles));
}

TEST(Cmp, DeterministicAcrossRuns)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.meanInterarrival = 500000;
    spec.roiRequests = 30;
    spec.warmupRequests = 5;
    spec.targetLines = 4096;
    Cmp a(cfg, {spec}, {}, 42), b(cfg, {spec}, {}, 42);
    a.run();
    b.run();
    EXPECT_EQ(a.lcResult(0).latencies.mean(),
              b.lcResult(0).latencies.mean());
    EXPECT_EQ(a.now(), b.now());
}

TEST(Cmp, SeedChangesArrivals)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.meanInterarrival = 500000;
    spec.roiRequests = 30;
    spec.warmupRequests = 5;
    spec.targetLines = 4096;
    Cmp a(cfg, {spec}, {}, 1), b(cfg, {spec}, {}, 2);
    a.run();
    b.run();
    EXPECT_NE(a.lcResult(0).latencies.mean(),
              b.lcResult(0).latencies.mean());
}

TEST(Cmp, BatchOnlyRunMeasuresIpc)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    BatchAppSpec spec;
    spec.params = batch_presets::make(BatchClass::Insensitive, 0)
                      .scaled(8.0);
    Cmp cmp(cfg, {}, {spec}, 5);
    cmp.run();
    const BatchResult &r = cmp.batchResult(0);
    EXPECT_GT(r.roiInstructions, 0u);
    EXPECT_GT(r.roiCycles, 0u);
    EXPECT_GT(r.ipc(), 0.1);
    EXPECT_LE(r.ipc(), 1.6);
}

TEST(Cmp, InsensitiveBatchFasterThanStreaming)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    auto ipc_of = [&](BatchClass cls) {
        BatchAppSpec spec;
        spec.params = batch_presets::make(cls, 0).scaled(8.0);
        Cmp cmp(cfg, {}, {spec}, 6);
        cmp.run();
        return cmp.batchResult(0).ipc();
    };
    EXPECT_GT(ipc_of(BatchClass::Insensitive),
              1.5 * ipc_of(BatchClass::Streaming));
}

TEST(Cmp, SharedRunExercisesPolicyAndFinishes)
{
    CmpConfig cfg = smallCfg();
    cfg.scheme = SchemeKind::Vantage;
    cfg.policy = PolicyKind::Ubik;
    cfg.ubik.slack = 0.05;
    LcAppSpec lc;
    lc.params = smallLc();
    lc.meanInterarrival = 400000;
    lc.roiRequests = 40;
    lc.warmupRequests = 10;
    lc.targetLines = 4096;
    lc.deadline = 300000;
    BatchAppSpec b1, b2;
    b1.params = batch_presets::make(BatchClass::Friendly, 0).scaled(8.0);
    b2.params = batch_presets::make(BatchClass::Streaming, 1).scaled(8.0);
    Cmp cmp(cfg, {lc, lc}, {b1, b2}, 7);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 40u);
    EXPECT_EQ(cmp.lcResult(1).latencies.count(), 40u);
    EXPECT_GT(cmp.batchResult(0).ipc(), 0.0);
    // The policy must have left partition targets summing to the LLC.
    PartitionScheme &s = cmp.scheme();
    std::uint64_t sum = 0;
    for (PartId p = 1; p < s.numPartitions(); p++)
        sum += s.targetSize(p);
    EXPECT_GT(sum, cfg.llcLines / 2);
}

TEST(Cmp, UbikConfigPlumbsThroughToPolicy)
{
    // CmpConfig::ubik must reach the constructed UbikPolicy.
    CmpConfig cfg = smallCfg();
    cfg.policy = PolicyKind::Ubik;
    cfg.ubik.slack = 0.07;
    cfg.ubik.accurateDeboost = false;
    cfg.ubik.idleOptions = 5;
    LcAppSpec lc;
    lc.params = smallLc();
    lc.roiRequests = 1;
    lc.warmupRequests = 0;
    lc.targetLines = 4096;
    lc.deadline = 300000;
    Cmp cmp(cfg, {lc}, {}, 9);
    auto *ubik = dynamic_cast<UbikPolicy *>(cmp.policy());
    ASSERT_NE(ubik, nullptr);
    EXPECT_DOUBLE_EQ(ubik->config().slack, 0.07);
    EXPECT_FALSE(ubik->config().accurateDeboost);
    EXPECT_EQ(ubik->config().idleOptions, 5u);
}

TEST(Cmp, InertiaBreakdownPopulated)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    cfg.trackInertia = true;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.meanInterarrival = 0;
    spec.roiRequests = 80;
    spec.warmupRequests = 20;
    spec.targetLines = 4096;
    Cmp cmp(cfg, {spec}, {}, 8);
    cmp.run();
    const LcResult &r = cmp.lcResult(0);
    std::uint64_t same_req = r.hitsByAge[0];
    std::uint64_t cross_req = 0;
    for (int i = 1; i <= 8; i++)
        cross_req += r.hitsByAge[i];
    // specjbb's defining property (Fig 2): substantial cross-request
    // reuse — the source of performance inertia.
    EXPECT_GT(cross_req, 0u);
    EXPECT_GT(same_req + cross_req, r.misses / 4);
}

TEST(Cmp, AllocationTraceSampled)
{
    CmpConfig cfg = smallCfg();
    cfg.traceAllocations = true;
    cfg.traceInterval = 500000;
    cfg.policy = PolicyKind::OnOff;
    LcAppSpec lc;
    lc.params = smallLc();
    lc.meanInterarrival = 400000;
    lc.roiRequests = 30;
    lc.warmupRequests = 5;
    lc.targetLines = 4096;
    BatchAppSpec b;
    b.params = batch_presets::make(BatchClass::Friendly, 0).scaled(8.0);
    Cmp cmp(cfg, {lc}, {b}, 9);
    cmp.run();
    ASSERT_GT(cmp.allocTrace().size(), 2u);
    for (const auto &s : cmp.allocTrace())
        EXPECT_EQ(s.targetLines.size(), 3u); // unmanaged + 2 apps
}

TEST(Cmp, ApkiMatchesWorkloadParameter)
{
    CmpConfig cfg = smallCfg();
    cfg.privateLlc = true;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.meanInterarrival = 0;
    spec.roiRequests = 100;
    spec.warmupRequests = 10;
    spec.targetLines = 4096;
    Cmp cmp(cfg, {spec}, {}, 10);
    cmp.run();
    EXPECT_NEAR(cmp.lcResult(0).apki(), spec.params.apki,
                0.15 * spec.params.apki);
}

TEST(CmpDeath, WayPartitioningNeedsSetAssociativeArray)
{
    CmpConfig cfg = smallCfg();
    cfg.scheme = SchemeKind::WayPart;
    cfg.array = ArrayKind::Z4_52;
    LcAppSpec spec;
    spec.params = smallLc();
    spec.targetLines = 4096;
    EXPECT_EXIT(Cmp(cfg, {spec}, {}, 1),
                ::testing::ExitedWithCode(1), "set-associative");
}

class SchemeMatrix
    : public ::testing::TestWithParam<std::pair<SchemeKind, ArrayKind>>
{
};

TEST_P(SchemeMatrix, AllCombinationsRunToCompletion)
{
    auto [scheme, array] = GetParam();
    CmpConfig cfg = smallCfg();
    cfg.scheme = scheme;
    cfg.array = array;
    cfg.policy = scheme == SchemeKind::SharedLru ? PolicyKind::Lru
                                                 : PolicyKind::Ubik;
    LcAppSpec lc;
    lc.params = smallLc();
    lc.meanInterarrival = 400000;
    lc.roiRequests = 25;
    lc.warmupRequests = 5;
    lc.targetLines = 4096;
    lc.deadline = 300000;
    BatchAppSpec b;
    b.params = batch_presets::make(BatchClass::Friendly, 2).scaled(8.0);
    Cmp cmp(cfg, {lc}, {b}, 11);
    cmp.run();
    EXPECT_EQ(cmp.lcResult(0).latencies.count(), 25u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeMatrix,
    ::testing::Values(
        std::make_pair(SchemeKind::SharedLru, ArrayKind::Z4_52),
        std::make_pair(SchemeKind::Vantage, ArrayKind::Z4_52),
        std::make_pair(SchemeKind::Vantage, ArrayKind::SA16),
        std::make_pair(SchemeKind::Vantage, ArrayKind::SA64),
        std::make_pair(SchemeKind::WayPart, ArrayKind::SA16),
        std::make_pair(SchemeKind::WayPart, ArrayKind::SA64)));

} // namespace
} // namespace ubik
