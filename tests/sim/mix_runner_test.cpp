/**
 * @file
 * Tests for the MixRunner methodology layer: calibration, baselines,
 * caching, and mix-run metric extraction.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/mix_runner.h"
#include "sim/result_cache.h"
#include "support/cache_test_util.h"
#include "workload/trace_app.h"
#include "workload/trace_capture.h"

namespace ubik {
namespace {

ExperimentConfig
fastCfg()
{
    ExperimentConfig cfg;
    cfg.scale = 16.0; // extra small for unit tests
    cfg.roiRequests = 60;
    cfg.warmupRequests = 15;
    cfg.seeds = 1;
    cfg.mixesPerLc = 1;
    return cfg;
}

TEST(ExperimentConfig, ScalingArithmetic)
{
    ExperimentConfig cfg;
    cfg.scale = 8.0;
    EXPECT_EQ(cfg.llcLines(), 24576u);
    EXPECT_EQ(cfg.privateLines(), 4096u);
    EXPECT_EQ(cfg.llc8MbLines(), 16384u);
    EXPECT_EQ(cfg.reconfigInterval(), msToCycles(50) / 8);
    cfg.scale = 1.0;
    EXPECT_EQ(cfg.llcLines(), 196608u); // paper's 12MB
    EXPECT_EQ(cfg.privateLines(), 32768u);
}

TEST(ExperimentConfig, LinesDivisibleByAnyGeometry)
{
    for (double s : {1.0, 3.0, 7.0, 8.0, 13.0}) {
        ExperimentConfig cfg;
        cfg.scale = s;
        EXPECT_EQ(cfg.llcLines() % 64, 0u);
        EXPECT_EQ(cfg.privateLines() % 64, 0u);
    }
}

TEST(PaperSchemes, FiveSchemesUbikLast)
{
    auto schemes = paperSchemes(0.05);
    ASSERT_EQ(schemes.size(), 5u);
    EXPECT_EQ(schemes[0].label, "LRU");
    EXPECT_EQ(schemes[4].label, "Ubik");
    EXPECT_DOUBLE_EQ(schemes[4].slack, 0.05);
}

TEST(MixRunner, BaselineHasSaneShape)
{
    MixRunner runner(fastCfg());
    const LcBaseline &b =
        runner.lcBaseline(lc_presets::specjbb(), 0.2, 1);
    EXPECT_GT(b.meanServiceCycles, 0.0);
    // lambda = load / mu  =>  interarrival = mu / load.
    EXPECT_NEAR(b.meanInterarrival, b.meanServiceCycles / 0.2, 1e-6);
    EXPECT_GE(b.tailMean, b.meanLatency);
    EXPECT_GT(b.p95, 0u);
}

TEST(MixRunner, BaselineCached)
{
    // A runner with no attached cache keeps baselines in its own
    // in-memory one: the second lookup is a hit, not a recompute.
    MixRunner runner(fastCfg());
    const LcBaseline a = runner.lcBaseline(lc_presets::specjbb(), 0.2, 1);
    const LcBaseline b = runner.lcBaseline(lc_presets::specjbb(), 0.2, 1);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.tailMean, b.tailMean);
    CacheStats st = runner.cache().stats();
    EXPECT_FALSE(runner.cache().persistent());
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.hits, 1u);
}

TEST(MixRunner, MemoKeysAreTheCanonicalCacheKeys)
{
    for (bool ooo : {true, false}) {
        MixRunner runner(fastCfg(), ooo);
        const LcAppParams lc = lc_presets::specjbb();
        const BatchAppParams b = batch_presets::make(BatchClass::Friendly, 0);
        EXPECT_EQ(runner.lcKey(lc, 0.2, 3),
                  lcBaselineKey(fastCfg(), lc, 0.2, 3, ooo));
        EXPECT_EQ(runner.batchKey(b, 3),
                  batchBaselineKey(fastCfg(), b, 3, ooo));
    }
}

TEST(MixRunner, NearbyLoadsKeepDistinctBaselines)
{
    // 0.2 and 0.2000001 print alike to six decimals; each load must
    // still get its own baseline, the one a fresh runner computes.
    MixRunner runner(fastCfg());
    const LcAppParams app = lc_presets::masstree();
    const LcBaseline a = runner.lcBaseline(app, 0.2, 1);
    const LcBaseline b = runner.lcBaseline(app, 0.2000001, 1);
    EXPECT_NE(a.meanInterarrival, b.meanInterarrival);
    MixRunner fresh(fastCfg());
    const LcBaseline want = fresh.lcBaseline(app, 0.2000001, 1);
    EXPECT_EQ(b.meanServiceCycles, want.meanServiceCycles);
    EXPECT_EQ(b.meanInterarrival, want.meanInterarrival);
    EXPECT_EQ(b.meanLatency, want.meanLatency);
    EXPECT_EQ(b.tailMean, want.tailMean);
    EXPECT_EQ(b.p95, want.p95);
}

TEST(MixRunner, SchemeSlackIsThePolicySlack)
{
    // SchemeUnderTest has one slack; ubik.slack is not a second one.
    SchemeUnderTest sut;
    sut.slack = 0.07;
    sut.ubik.slack = 0.99;
    CmpConfig cc;
    sut.applyTo(cc);
    EXPECT_EQ(cc.ubik.slack, 0.07);
}

TEST(MixRunner, HigherLoadMeansHigherTail)
{
    MixRunner runner(fastCfg());
    const LcBaseline &lo =
        runner.lcBaseline(lc_presets::specjbb(), 0.2, 1);
    const LcBaseline &hi =
        runner.lcBaseline(lc_presets::specjbb(), 0.6, 1);
    EXPECT_GT(hi.tailMean, lo.tailMean);
}

TEST(MixRunner, BatchAloneIpcCachedAndPositive)
{
    MixRunner runner(fastCfg());
    auto p = batch_presets::make(BatchClass::Friendly, 0);
    double a = runner.batchAloneIpc(p, 1);
    double b = runner.batchAloneIpc(p, 1);
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(MixRunner, RunAloneProducesRoiLatencies)
{
    MixRunner runner(fastCfg());
    LatencyRecorder service;
    LatencyRecorder lat =
        runner.runAlone(lc_presets::specjbb(), 0.2, 1, &service);
    EXPECT_EQ(lat.count(), 60u);
    EXPECT_EQ(service.count(), 60u);
    EXPECT_GE(lat.mean(), service.mean());
}

MixSpec
specjbbMix()
{
    MixSpec mix;
    mix.name = "t";
    mix.lc.app = lc_presets::specjbb();
    mix.lc.load = 0.2;
    mix.batch.name = "nfs";
    mix.batch.apps = {
        batch_presets::make(BatchClass::Insensitive, 0),
        batch_presets::make(BatchClass::Friendly, 1),
        batch_presets::make(BatchClass::Streaming, 2),
    };
    return mix;
}

TEST(MixRunner, MixRunProducesAllMetrics)
{
    MixRunner runner(fastCfg());
    MixSpec mix = specjbbMix();
    SchemeUnderTest sut{"StaticLC", SchemeKind::Vantage,
                        ArrayKind::Z4_52, PolicyKind::StaticLc, 0.0};
    MixRunResult r = runner.runMix(mix, sut, 1);
    EXPECT_GT(r.lcTailMean, 0.0);
    EXPECT_GT(r.tailDegradation, 0.3);
    EXPECT_LT(r.tailDegradation, 5.0);
    EXPECT_GT(r.weightedSpeedup, 0.5);
    ASSERT_EQ(r.batchSpeedups.size(), 3u);
    for (double s : r.batchSpeedups)
        EXPECT_GT(s, 0.0);
}

/** runMix with the plot-data output on: the same result, bit for
 *  bit, as without it, plus an allocation trace and every ROI latency
 *  of the three LC instances. Returns the allocation trace. */
std::vector<AllocSample>
tracedRunMatchesPlain(const MixSpec &mix)
{
    SchemeUnderTest sut{"UCP", SchemeKind::Vantage, ArrayKind::Z4_52,
                        PolicyKind::Ucp, 0.0};
    MixRunner runner(fastCfg());
    MixRunResult plain = runner.runMix(mix, sut, 1);
    MixTrace trace;
    MixRunResult traced = runner.runMix(mix, sut, 1, &trace);
    test::expectSameResults({plain}, {traced});
    EXPECT_FALSE(trace.alloc.empty());
    EXPECT_EQ(trace.latencies.count(), 3 * fastCfg().roiRequests);
    return trace.alloc;
}

bool
sameTargets(const std::vector<AllocSample> &a,
            const std::vector<AllocSample> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); i++)
        if (a[i].cycle != b[i].cycle ||
            a[i].targetLines != b[i].targetLines)
            return false;
    return true;
}

TEST(MixRunner, TraceOutputLeavesResultBitIdentical)
{
    tracedRunMatchesPlain(specjbbMix());
}

TEST(MixRunner, TraceOutputCoversBatchTraceMixes)
{
    MixSpec mix = specjbbMix();
    std::vector<AllocSample> synthetic = tracedRunMatchesPlain(mix);

    BatchAppParams p = mix.batch.apps[1].scaled(fastCfg().scale);
    mix.batch.traces.push_back(TraceApp::fromData(std::make_shared<TraceData>(
        captureBatchTrace(p, 20000, /*seed=*/5))));
    // The replayed batch apps are what the traced run allocates for:
    // a trace that ignored them would repeat the synthetic one.
    EXPECT_FALSE(sameTargets(tracedRunMatchesPlain(mix), synthetic));
}

TEST(MixRunner, InOrderBaselinesDifferFromOoo)
{
    MixRunner ooo(fastCfg(), true);
    MixRunner io(fastCfg(), false);
    const LcBaseline &a =
        ooo.lcBaseline(lc_presets::specjbb(), 0.2, 1);
    const LcBaseline &b = io.lcBaseline(lc_presets::specjbb(), 0.2, 1);
    // In-order cores are slower: longer service times.
    EXPECT_GT(b.meanServiceCycles, a.meanServiceCycles);
}

} // namespace
} // namespace ubik
