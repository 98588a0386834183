/**
 * @file
 * Replay-fidelity golden tests: the capture -> serialize -> stream ->
 * replay pipeline must be *invisible* to the simulator.
 *
 * The strong form: a mix whose three LC instances replay traces
 * captured with the exact per-core RNGs the mix Cmp would construct
 * (Cmp::appRng over MixRunner::mixCmpSeed) produces a MixRunResult
 * bit-identical to simulating the synthetic preset directly — every
 * double compared by bit pattern, not tolerance. This holds because
 * capture issues the simulator's 1-based request ids, traces replay
 * in capture order, and instance-i replay shifts addresses by
 * (i << 40), landing exactly on instance i's generated layout.
 *
 * The transport form: how the trace got into memory (whole-file
 * readTrace, streamed TraceReader at any batch size, prefetch thread
 * on or off, v1 or v2 encoding) never changes the replayed result.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "sim/cmp.h"
#include "sim/mix_runner.h"
#include "trace/access_trace.h"
#include "workload/mix.h"
#include "workload/trace_app.h"
#include "workload/trace_capture.h"

namespace ubik {
namespace {

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

void
expectBitEqual(double a, double b, const char *what)
{
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

void
expectIdenticalResults(const MixRunResult &a, const MixRunResult &b)
{
    expectBitEqual(a.lcTailMean, b.lcTailMean, "lcTailMean");
    expectBitEqual(a.tailDegradation, b.tailDegradation,
                   "tailDegradation");
    expectBitEqual(a.meanDegradation, b.meanDegradation,
                   "meanDegradation");
    expectBitEqual(a.weightedSpeedup, b.weightedSpeedup,
                   "weightedSpeedup");
    ASSERT_EQ(a.batchSpeedups.size(), b.batchSpeedups.size());
    for (std::size_t i = 0; i < a.batchSpeedups.size(); i++)
        expectBitEqual(a.batchSpeedups[i], b.batchSpeedups[i],
                       "batchSpeedup");
    EXPECT_EQ(a.ubikDeboosts, b.ubikDeboosts);
    EXPECT_EQ(a.ubikDeadlineDeboosts, b.ubikDeadlineDeboosts);
    EXPECT_EQ(a.ubikWatermarks, b.ubikWatermarks);
}

struct TraceFidelity : public ::testing::Test
{
    ExperimentConfig cfg;
    MixSpec spec;
    SchemeUnderTest sut;
    std::uint64_t seed = 3;

    void
    SetUp() override
    {
        cfg = ExperimentConfig{}; // ignore UBIK_* env for stability
        cfg.scale = 16.0;
        cfg.roiRequests = 25;
        cfg.warmupRequests = 8;

        spec.name = "fidelity";
        spec.lc.app = lc_presets::specjbb();
        spec.lc.load = 0.2;
        spec.batch.name = "fts";
        spec.batch.apps[0] =
            batch_presets::make(BatchClass::Friendly, 1);
        spec.batch.apps[1] =
            batch_presets::make(BatchClass::Fitting, 2);
        spec.batch.apps[2] =
            batch_presets::make(BatchClass::Streaming, 3);

        sut.label = "Ubik";
        sut.scheme = SchemeKind::Vantage;
        sut.array = ArrayKind::Z4_52;
        sut.policy = PolicyKind::Ubik;
        sut.slack = 0.05;
    }

    /** Capture what mix core `c` would generate, as TraceData. */
    TraceData
    captureInstance(std::uint32_t c, std::uint64_t requests) const
    {
        LcAppParams scaled = spec.lc.app.scaled(cfg.scale);
        return captureLcTrace(
            scaled, requests,
            Cmp::appRng(MixRunner::mixCmpSeed(seed), c),
            /*instance=*/0);
    }
};

TEST_F(TraceFidelity, TracedMixBitIdenticalToDirectSimulation)
{
    MixRunner runner(cfg);
    MixRunResult direct = runner.runMix(spec, sut, seed);

    // Generous capture: the mix may start requests beyond warmup+ROI
    // while other cores drain; replay must never wrap.
    std::uint64_t requests =
        (cfg.warmupRequests + cfg.roiRequests) * 8;

    MixSpec traced = spec;
    for (std::uint32_t c = 0; c < 3; c++) {
        // Full pipeline per instance: capture -> v2 file -> streamed
        // load -> TraceApp.
        std::string path =
            tmpPath("fidelity_i" + std::to_string(c) + ".ubtr");
        writeTrace(captureInstance(c, requests), path);
        traced.lc.traces.push_back(TraceApp::load(path));
    }

    MixRunResult replayed = runner.runMix(traced, sut, seed);
    expectIdenticalResults(direct, replayed);
}

TEST_F(TraceFidelity, IngestionTransportNeverChangesResults)
{
    std::uint64_t requests =
        (cfg.warmupRequests + cfg.roiRequests) * 8;
    TraceData td = captureInstance(0, requests);

    std::string v1 = tmpPath("transport.v1.ubtr");
    std::string v2 = tmpPath("transport.v2.ubtr");
    writeTrace(td, v1, TraceWriterOptions{1, 64 << 10});
    writeTrace(td, v2);

    // One shared trace for all three instances (the normal user
    // workflow), loaded five different ways.
    auto runWith = [&](std::shared_ptr<const TraceApp> app) {
        MixRunner runner(cfg);
        MixSpec traced = spec;
        traced.lc.traces.push_back(std::move(app));
        return runner.runMix(traced, sut, seed);
    };

    MixRunResult ref = runWith(
        TraceApp::fromData(std::make_shared<TraceData>(td)));

    MixRunResult fromV1 = runWith(TraceApp::load(v1));
    expectIdenticalResults(ref, fromV1);

    MixRunResult fromV2 = runWith(TraceApp::load(v2));
    expectIdenticalResults(ref, fromV2);

    TraceReaderOptions tiny;
    tiny.batchRecords = 257;
    tiny.prefetch = false;
    MixRunResult tinySync = runWith(TraceApp::load(v2, tiny));
    expectIdenticalResults(ref, tinySync);

    tiny.prefetch = true;
    MixRunResult tinyPre = runWith(TraceApp::load(v2, tiny));
    expectIdenticalResults(ref, tinyPre);
}

TEST_F(TraceFidelity, PerInstanceTraceAssignmentEntersCacheKey)
{
    // Same mix, different trace backing -> different canonical keys;
    // identical records via different encodings -> the same key.
    std::uint64_t requests = 32;
    TraceData td = captureInstance(0, requests);
    std::string v1 = tmpPath("key.v1.ubtr");
    std::string v2 = tmpPath("key.v2.ubtr");
    writeTrace(td, v1, TraceWriterOptions{1, 64 << 10});
    writeTrace(td, v2);

    EXPECT_EQ(TraceApp::load(v1)->contentHash(),
              TraceApp::load(v2)->contentHash());

    TraceData other = captureInstance(1, requests);
    EXPECT_NE(TraceApp::fromData(std::make_shared<TraceData>(other))
                  ->contentHash(),
              TraceApp::load(v1)->contentHash());
}

TEST_F(TraceFidelity, RunMixRejectsBadTraceCount)
{
    MixSpec bad = spec;
    TraceData td = captureInstance(0, 8);
    bad.lc.traces.push_back(
        TraceApp::fromData(std::make_shared<TraceData>(td)));
    bad.lc.traces.push_back(
        TraceApp::fromData(std::make_shared<TraceData>(td)));
    MixRunner runner(cfg);
    EXPECT_DEATH(runner.runMix(bad, sut, seed),
                 "0, 1, or 3 traces");
}

} // namespace
} // namespace ubik
