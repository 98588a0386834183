/**
 * @file
 * Integration tests for trace replay inside the full simulator: an
 * LcApp bound to a captured trace must feed Cmp the recorded request
 * structure and access stream, complete a run under every policy,
 * and show the same qualitative QoS behaviour as the generator it
 * was captured from (replay carries the inertia signal, so OnOff
 * hurts it and StaticLC/Ubik protect it).
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/cmp.h"
#include "sim/experiment.h"
#include "trace/trace_analyzer.h"
#include "workload/trace_capture.h"

namespace ubik {
namespace {

struct TraceReplay : public ::testing::Test
{
    ExperimentConfig cfg;
    std::shared_ptr<TraceData> trace;
    LcAppParams params;

    void
    SetUp() override
    {
        cfg.scale = 8.0;
        cfg.roiRequests = 30;
        cfg.warmupRequests = 10;
        params = lc_presets::specjbb().scaled(cfg.scale);
        trace = std::make_shared<TraceData>(
            captureLcTrace(params, 60, /*seed=*/21));
    }

    Cmp
    makeCmp(PolicyKind policy, bool replay)
    {
        CmpConfig cc = cfg.baseCmpConfig();
        cc.policy = policy;
        if (policy == PolicyKind::Lru)
            cc.scheme = SchemeKind::SharedLru;
        std::vector<LcAppSpec> lc(3);
        for (auto &s : lc) {
            s.params = params;
            if (replay)
                s.trace = trace;
            s.meanInterarrival = 2e6;
            s.roiRequests = cfg.roiRequests;
            s.warmupRequests = cfg.warmupRequests;
            s.targetLines = cfg.privateLines();
            s.deadline = 3000000;
        }
        std::vector<BatchAppSpec> batch(3);
        batch[0].params =
            batch_presets::make(BatchClass::Friendly, 1)
                .scaled(cfg.scale);
        batch[1].params =
            batch_presets::make(BatchClass::Friendly, 7)
                .scaled(cfg.scale);
        batch[2].params =
            batch_presets::make(BatchClass::Streaming, 2)
                .scaled(cfg.scale);
        return Cmp(cc, lc, batch, /*seed=*/77);
    }
};

TEST_F(TraceReplay, CompletesAllRequestsUnderEveryPolicy)
{
    for (PolicyKind p :
         {PolicyKind::Lru, PolicyKind::Ucp, PolicyKind::StaticLc,
          PolicyKind::OnOff, PolicyKind::Ubik}) {
        Cmp cmp = makeCmp(p, /*replay=*/true);
        cmp.run();
        for (std::uint32_t i = 0; i < 3; i++)
            EXPECT_EQ(cmp.lcResult(i).latencies.count(),
                      cfg.roiRequests)
                << enumName(p) << " instance " << i;
    }
}

TEST_F(TraceReplay, ReplayMatchesGeneratorStatistics)
{
    // The replayed stream is the recorded stream: APKI and miss
    // behaviour under the same policy must track the live generator
    // closely (not exactly: request *selection* differs because
    // warmup consumes trace requests cyclically).
    Cmp live = makeCmp(PolicyKind::StaticLc, /*replay=*/false);
    live.run();
    Cmp replay = makeCmp(PolicyKind::StaticLc, /*replay=*/true);
    replay.run();
    double live_apki = live.lcResult(0).apki();
    double replay_apki = replay.lcResult(0).apki();
    EXPECT_NEAR(replay_apki, live_apki, live_apki * 0.25);

    double live_miss =
        static_cast<double>(live.lcResult(0).misses) /
        static_cast<double>(live.lcResult(0).accesses);
    double replay_miss =
        static_cast<double>(replay.lcResult(0).misses) /
        static_cast<double>(replay.lcResult(0).accesses);
    EXPECT_NEAR(replay_miss, live_miss, 0.15);
}

TEST_F(TraceReplay, ReplayPreservesInertiaSignal)
{
    // Cross-request reuse survives the capture/replay roundtrip, so
    // the QoS ordering holds: OnOff (which drops the working set on
    // every idle) degrades the replayed app's tail more than Ubik.
    Cmp onoff = makeCmp(PolicyKind::OnOff, /*replay=*/true);
    onoff.run();
    Cmp ubik = makeCmp(PolicyKind::Ubik, /*replay=*/true);
    ubik.run();

    LatencyRecorder on_merged, ubik_merged;
    for (std::uint32_t i = 0; i < 3; i++) {
        on_merged.merge(onoff.lcResult(i).latencies);
        ubik_merged.merge(ubik.lcResult(i).latencies);
    }
    EXPECT_GT(on_merged.tailMean(95.0), ubik_merged.tailMean(95.0));
}

TEST_F(TraceReplay, InstancesReplayDisjointAddressSpaces)
{
    // Three instances of the same trace must not share cache lines:
    // with StaticLC partitions their miss counts are near-identical
    // (same stream, same partition size) rather than collapsing to
    // zero via cross-instance sharing.
    Cmp cmp = makeCmp(PolicyKind::StaticLc, /*replay=*/true);
    cmp.run();
    std::uint64_t m0 = cmp.lcResult(0).misses;
    for (std::uint32_t i = 1; i < 3; i++) {
        EXPECT_GT(cmp.lcResult(i).misses, m0 / 2);
        EXPECT_LT(cmp.lcResult(i).misses, m0 * 2);
    }
}

TEST(TraceReplayUnit, LcAppReplaysRecordedStreamVerbatim)
{
    LcAppParams params = lc_presets::masstree().scaled(16.0);
    auto trace = std::make_shared<TraceData>(
        captureLcTrace(params, 10, /*seed=*/5));

    // Instance 0 carries a zero address salt: the replayed stream is
    // byte-for-byte the captured one (the fidelity contract).
    LcApp app(params, /*instance=*/0, Rng(99));
    app.bindTrace(trace);
    EXPECT_TRUE(app.replaying());
    for (ReqId r = 0; r < 10; r++) {
        double work = app.startRequest(r + 1);
        EXPECT_DOUBLE_EQ(work, trace->requestWork[r]);
        std::uint64_t n = app.requestAccesses(work);
        EXPECT_EQ(n, trace->accessesOf(r));
        for (std::uint64_t i = 0; i < n; i++)
            EXPECT_EQ(app.nextAddr(),
                      trace->accesses[trace->requestStart[r] + i]);
    }
}

TEST(TraceReplayUnit, LaterInstancesReplayWithDisjointSalt)
{
    LcAppParams params = lc_presets::masstree().scaled(16.0);
    auto trace = std::make_shared<TraceData>(
        captureLcTrace(params, 3, /*seed=*/5));
    LcApp app(params, /*instance=*/2, Rng(99));
    app.bindTrace(trace);
    double work = app.startRequest(1);
    std::uint64_t n = app.requestAccesses(work);
    ASSERT_GT(n, 0u);
    EXPECT_EQ(app.nextAddr(),
              trace->accesses[0] + (static_cast<Addr>(2) << 40));
}

TEST(TraceReplayUnit, ReplayLoopsPastTraceEnd)
{
    LcAppParams params = lc_presets::masstree().scaled(16.0);
    auto trace = std::make_shared<TraceData>(
        captureLcTrace(params, 5, /*seed=*/5));
    LcApp app(params, 0, Rng(99));
    app.bindTrace(trace);
    // Replay follows capture order no matter what ids the caller
    // uses: the 8th startRequest wraps to trace request 7 % 5 = 2.
    double work = 0;
    for (ReqId r = 1; r <= 8; r++) {
        work = app.startRequest(r);
        std::uint64_t n = app.requestAccesses(work);
        for (std::uint64_t i = 0; i < n; i++)
            app.nextAddr();
    }
    EXPECT_DOUBLE_EQ(work, trace->requestWork[2]);
}

TEST(TraceReplayUnitDeath, RejectsEmptyTrace)
{
    LcAppParams params = lc_presets::masstree().scaled(16.0);
    LcApp app(params, 0, Rng(1));
    EXPECT_DEATH(app.bindTrace(std::make_shared<TraceData>()),
                 "no requests");
}

} // namespace
} // namespace ubik
