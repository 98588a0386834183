/**
 * @file
 * Integration tests reproducing the paper's headline qualitative
 * claims on a small, fixed mix (seeds pinned for determinism):
 *
 *  - StaticLC and Ubik preserve tail latency; best-effort schemes
 *    (LRU / UCP / OnOff) can degrade it badly under adversarial
 *    batch pressure;
 *  - Ubik frees more space for batch apps than StaticLC;
 *  - slack trades bounded tail degradation for batch throughput.
 *
 * These use an inertia-heavy LC app (specjbb) against streaming/
 * friendly batch apps — the configuration Fig 10 shows is most
 * damaging for OnOff and LRU.
 */

#include <gtest/gtest.h>

#include "sim/mix_runner.h"

namespace ubik {
namespace {

struct EndToEnd : public ::testing::Test
{
    ExperimentConfig cfg;
    MixSpec mix;

    void
    SetUp() override
    {
        cfg.scale = 8.0;
        cfg.roiRequests = 120;
        cfg.warmupRequests = 30;
        mix.name = "e2e";
        mix.lc.app = lc_presets::specjbb();
        mix.lc.load = 0.2;
        mix.batch.name = "ffs";
        mix.batch.apps = {
            batch_presets::make(BatchClass::Friendly, 1),
            batch_presets::make(BatchClass::Friendly, 7),
            batch_presets::make(BatchClass::Streaming, 2),
        };
    }

    MixRunResult
    run(PolicyKind policy, double slack = 0.0,
        SchemeKind scheme = SchemeKind::Vantage)
    {
        MixRunner runner(cfg);
        SchemeUnderTest sut{enumName(policy), scheme,
                            ArrayKind::Z4_52, policy, slack};
        if (policy == PolicyKind::Lru)
            sut.scheme = SchemeKind::SharedLru;
        return runner.runMix(mix, sut, /*seed=*/3);
    }
};

TEST_F(EndToEnd, StaticLcPreservesTailLatency)
{
    MixRunResult r = run(PolicyKind::StaticLc);
    EXPECT_LT(r.tailDegradation, 1.25);
}

TEST_F(EndToEnd, UbikPreservesTailLatencyWithinSlack)
{
    MixRunResult r = run(PolicyKind::Ubik, 0.05);
    EXPECT_LT(r.tailDegradation, 1.30);
}

TEST_F(EndToEnd, UbikBeatsStaticLcOnBatchThroughput)
{
    MixRunResult st = run(PolicyKind::StaticLc);
    MixRunResult ub = run(PolicyKind::Ubik, 0.05);
    EXPECT_GT(ub.weightedSpeedup, st.weightedSpeedup);
}

TEST_F(EndToEnd, BestEffortSchemesGiveBatchMoreThanStaticLc)
{
    MixRunResult st = run(PolicyKind::StaticLc);
    MixRunResult on = run(PolicyKind::OnOff);
    MixRunResult ucp = run(PolicyKind::Ucp);
    EXPECT_GE(on.weightedSpeedup, st.weightedSpeedup * 0.98);
    EXPECT_GE(ucp.weightedSpeedup, st.weightedSpeedup * 0.98);
}

TEST_F(EndToEnd, UcpDegradesTailMoreThanUbik)
{
    // UCP reads the mostly-idle LC apps as low-utility and starves
    // them (the paper's central complaint).
    MixRunResult ucp = run(PolicyKind::Ucp);
    MixRunResult ub = run(PolicyKind::Ubik, 0.05);
    EXPECT_GT(ucp.tailDegradation, ub.tailDegradation);
}

TEST_F(EndToEnd, AllSchemesCompleteAllRequests)
{
    for (PolicyKind p : {PolicyKind::Lru, PolicyKind::Ucp,
                         PolicyKind::OnOff, PolicyKind::StaticLc,
                         PolicyKind::Ubik}) {
        MixRunResult r = run(p, p == PolicyKind::Ubik ? 0.05 : 0.0);
        EXPECT_GT(r.lcTailMean, 0.0) << enumName(p);
        EXPECT_GT(r.weightedSpeedup, 0.3) << enumName(p);
    }
}

TEST_F(EndToEnd, SlackTradesTailForThroughput)
{
    MixRunResult strict = run(PolicyKind::Ubik, 0.0);
    MixRunResult slack10 = run(PolicyKind::Ubik, 0.10);
    // More slack can only help batch apps...
    EXPECT_GE(slack10.weightedSpeedup,
              strict.weightedSpeedup * 0.97);
    // ...while tail latency stays within a loose sanity bound.
    EXPECT_LT(slack10.tailDegradation, 1.5);
}

TEST_F(EndToEnd, HighLoadStillMeetsDeadlines)
{
    mix.lc.load = 0.6;
    MixRunResult ub = run(PolicyKind::Ubik, 0.05);
    EXPECT_LT(ub.tailDegradation, 1.35);
}

TEST_F(EndToEnd, InertiaSensitiveAppSuffersUnderOnOff)
{
    // OnOff strips an idle app's entire allocation; with specjbb's
    // heavy cross-request reuse this must cost more tail latency than
    // Ubik's bounded downsizing.
    MixRunResult on = run(PolicyKind::OnOff);
    MixRunResult ub = run(PolicyKind::Ubik, 0.05);
    EXPECT_GT(on.tailDegradation, ub.tailDegradation * 0.95);
}

} // namespace
} // namespace ubik
