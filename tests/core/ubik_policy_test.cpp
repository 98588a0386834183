/**
 * @file
 * Tests for UbikPolicy (§5): sizing invariants, idle/active
 * transitions with boosting, accurate de-boosting, the batch
 * repartition path, and the slack controller.
 */

#include <gtest/gtest.h>

#include "core/ubik_policy.h"
#include "policy/policy_util.h"

#include "../support/test_harness.h"

namespace ubik {
namespace {

using test::PolicyHarness;

constexpr std::uint64_t kLlc = 24576;  // 1.5MB-equivalent
constexpr std::uint64_t kTarget = 4096; // 256KB-equivalent
constexpr Cycles kDeadline = 2000000;

/** Harness with one LC app (0) and two batch apps (1, 2), warmed so
 *  the policy has meaningful curves. */
struct UbikFixture : public ::testing::Test
{
    PolicyHarness h{kLlc, 3};
    std::unique_ptr<UbikPolicy> policy;

    void
    warm(double slack = 0.0, bool accurate_deboost = true)
    {
        h.makeLc(0, kTarget, kDeadline);
        UbikConfig cfg;
        cfg.slack = slack;
        cfg.accurateDeboost = accurate_deboost;
        policy = std::make_unique<UbikPolicy>(*h.scheme, h.monitors,
                                              cfg);
        // One interval of activity: LC app with a cache-friendly
        // working set larger than its target, batch apps hungry.
        h.monitors[0].active = true;
        h.feedZipf(0, kTarget * 2, 0.7, 120000);
        h.feedZipf(1, kLlc, 0.6, 120000);
        h.feedZipf(2, kLlc, 0.6, 120000);
        h.refreshProfiles(50);
        policy->reconfigure(1000000);
    }
};

TEST_F(UbikFixture, ConstructionBehavesLikeStaticLc)
{
    // Before any monitoring data, the LC partition sits at its
    // (bucket-quantized) target: safe by construction.
    h.makeLc(0, kTarget, kDeadline);
    UbikPolicy p(*h.scheme, h.monitors);
    EXPECT_NEAR(static_cast<double>(h.scheme->targetSize(1)),
                static_cast<double>(kTarget),
                static_cast<double>(linesPerBucket(kLlc)));
}

TEST_F(UbikFixture, SizingInvariants)
{
    warm();
    const UbikLcState &st = policy->lcState(0);
    EXPECT_LE(st.sIdle, st.sActive);
    EXPECT_GE(st.sBoost, st.sActive);
    EXPECT_LE(st.sBoost, kLlc); // boost cap: whole cache / 1 LC app
    // Strict mode: s_active is the target.
    EXPECT_NEAR(static_cast<double>(st.sActive),
                static_cast<double>(kTarget),
                static_cast<double>(linesPerBucket(kLlc)));
}

TEST_F(UbikFixture, CacheFriendlyLcAppIsDownsizedWhenIdle)
{
    warm();
    const UbikLcState &st = policy->lcState(0);
    // The LC app has real cross-size utility and a generous deadline:
    // Ubik must find a feasible downsizing.
    EXPECT_LT(st.sIdle, st.sActive);
}

TEST_F(UbikFixture, IdleShrinksAndActiveBoostsPartition)
{
    warm();
    const UbikLcState &st = policy->lcState(0);
    ASSERT_LT(st.sIdle, st.sActive);

    h.monitors[0].active = false;
    policy->onIdle(0, 1100000);
    EXPECT_EQ(h.scheme->targetSize(1), st.sIdle);
    // Freed space went to the batch partitions.
    std::uint64_t batch = h.scheme->targetSize(2) +
                          h.scheme->targetSize(3);
    EXPECT_GE(batch + st.sIdle + linesPerBucket(kLlc) * 4, kLlc);

    h.monitors[0].active = true;
    policy->onActive(0, 1200000);
    EXPECT_EQ(h.scheme->targetSize(1), st.sBoost);
    EXPECT_GT(h.scheme->targetSize(1), st.sActive);
}

TEST_F(UbikFixture, DeboostInterruptReturnsToActiveSize)
{
    warm();
    const UbikLcState &st = policy->lcState(0);
    ASSERT_LT(st.sIdle, st.sActive);
    h.monitors[0].active = false;
    policy->onIdle(0, 1100000);
    h.monitors[0].active = true;
    policy->onActive(0, 1200000);
    ASSERT_EQ(h.scheme->targetSize(1), st.sBoost);

    // Feed accesses that hit in the boosted partition but would have
    // missed at s_active: UMON probes at depths beyond s_active.
    std::uint64_t fired_before = policy->deboostInterrupts();
    UmonProbe deep;
    deep.sampled = true;
    deep.depth = 32; // deepest stack position: misses at any s_active
    for (int i = 0; i < 100; i++)
        policy->onAccess(0, deep, /*miss=*/false, 1200000 + i);
    EXPECT_GT(policy->deboostInterrupts(), fired_before);
    EXPECT_EQ(h.scheme->targetSize(1), st.sActive);
}

TEST_F(UbikFixture, DeadlineWaitHoldsBoostDespiteRecovery)
{
    // With the accurate de-boost circuit ablated (§5.1.1's strawman),
    // early repayment must NOT release the boost; only deadline
    // expiry does.
    warm(0.0, /*accurate_deboost=*/false);
    const UbikLcState &st = policy->lcState(0);
    ASSERT_LT(st.sIdle, st.sActive);
    h.monitors[0].active = false;
    policy->onIdle(0, 1100000);
    h.monitors[0].active = true;
    const Cycles boost_start = 1200000;
    policy->onActive(0, boost_start);
    ASSERT_EQ(h.scheme->targetSize(1), st.sBoost);

    // Deep probes that would fire the circuit immediately.
    UmonProbe deep;
    deep.sampled = true;
    deep.depth = 32;
    for (int i = 0; i < 100; i++)
        policy->onAccess(0, deep, /*miss=*/false, boost_start + i);
    EXPECT_EQ(policy->deboostInterrupts(), 0u);
    EXPECT_EQ(h.scheme->targetSize(1), st.sBoost) << "boost released "
        "early despite the circuit being ablated";

    // Past the deadline, the next access releases the boost.
    policy->onAccess(0, deep, /*miss=*/false,
                     boost_start + kDeadline + 1);
    EXPECT_EQ(policy->deadlineDeboosts(), 1u);
    EXPECT_EQ(h.scheme->targetSize(1), st.sActive);
}

TEST_F(UbikFixture, DeadlineWaitStillDeboostsOnIdle)
{
    // Going idle always releases the boost, circuit or no circuit.
    warm(0.0, /*accurate_deboost=*/false);
    const UbikLcState &st = policy->lcState(0);
    ASSERT_LT(st.sIdle, st.sActive);
    h.monitors[0].active = false;
    policy->onIdle(0, 1100000);
    h.monitors[0].active = true;
    policy->onActive(0, 1200000);
    ASSERT_EQ(h.scheme->targetSize(1), st.sBoost);
    h.monitors[0].active = false;
    policy->onIdle(0, 1300000);
    EXPECT_EQ(h.scheme->targetSize(1), st.sIdle);
    EXPECT_FALSE(policy->lcState(0).boosted);
}

TEST_F(UbikFixture, AccurateDeboostDefaultsOn)
{
    UbikConfig cfg;
    EXPECT_TRUE(cfg.accurateDeboost);
}

TEST_F(UbikFixture, BatchAllocationsFollowLcResizes)
{
    warm();
    const UbikLcState &st = policy->lcState(0);
    ASSERT_LT(st.sIdle, st.sActive);
    std::uint64_t batch_active = h.scheme->targetSize(2) +
                                 h.scheme->targetSize(3);
    h.monitors[0].active = false;
    policy->onIdle(0, 1100000);
    std::uint64_t batch_idle = h.scheme->targetSize(2) +
                               h.scheme->targetSize(3);
    EXPECT_GT(batch_idle, batch_active);
    // Conservation: nothing over-allocated.
    EXPECT_LE(batch_idle + h.scheme->targetSize(1),
              kLlc + 4 * linesPerBucket(kLlc));
}

TEST_F(UbikFixture, InsensitiveAppDownsizedAtNoCost)
{
    // A flat miss curve beyond a tiny hot set means downsizing loses
    // (almost) nothing: L ~ 0, so Ubik frees the space without even
    // needing a boost. This is the xapian case in Fig 10.
    h.makeLc(0, kTarget, kDeadline);
    policy = std::make_unique<UbikPolicy>(*h.scheme, h.monitors);
    h.monitors[0].active = true;
    h.feedZipf(0, 256, 1.2, 120000); // tiny hot set: no misses at 4K
    h.feedZipf(1, kLlc, 0.6, 120000);
    h.feedZipf(2, kLlc, 0.6, 120000);
    h.refreshProfiles(50);
    policy->reconfigure(1000000);
    const UbikLcState &st = policy->lcState(0);
    EXPECT_LT(st.sIdle, st.sActive);
}

TEST_F(UbikFixture, TightDeadlinePreventsDownsizing)
{
    // With a deadline too short for any boost to repay the warm-up
    // transient of a lossy downsizing, strict Ubik must refuse to
    // downsize: the guarantee is "same progress by the deadline", and
    // no feasible (s_idle, s_boost) pair exists.
    h.makeLc(0, kTarget, /*deadline=*/500);
    policy = std::make_unique<UbikPolicy>(*h.scheme, h.monitors);
    h.monitors[0].active = true;
    h.feedZipf(0, kTarget * 2, 0.7, 120000); // real cross-size utility
    h.feedZipf(1, kLlc, 0.6, 120000);
    h.feedZipf(2, kLlc, 0.6, 120000);
    h.refreshProfiles(50);
    policy->reconfigure(1000000);
    const UbikLcState &st = policy->lcState(0);
    EXPECT_EQ(st.sIdle, st.sActive);
    EXPECT_EQ(st.sBoost, st.sActive);
}

TEST_F(UbikFixture, LongerDeadlineFreesMoreSpace)
{
    // The deadline is the knob trading responsiveness for batch
    // space: a more generous deadline admits deeper downsizing.
    auto idle_size_for = [&](Cycles deadline) {
        PolicyHarness hh(kLlc, 3);
        hh.makeLc(0, kTarget, deadline);
        UbikPolicy p(*hh.scheme, hh.monitors);
        hh.monitors[0].active = true;
        hh.feedZipf(0, kTarget * 2, 0.7, 120000);
        hh.feedZipf(1, kLlc, 0.6, 120000);
        hh.feedZipf(2, kLlc, 0.6, 120000);
        hh.refreshProfiles(50);
        p.reconfigure(1000000);
        return p.lcState(0).sIdle;
    };
    EXPECT_LE(idle_size_for(20000000), idle_size_for(200000));
}

TEST_F(UbikFixture, BoostCapSharedAcrossLcApps)
{
    // With 3 LC apps, no boost may exceed 1/3 of the cache (§5.1.1).
    PolicyHarness h3(kLlc, 3);
    for (AppId a = 0; a < 3; a++)
        h3.makeLc(a, kTarget, kDeadline);
    UbikPolicy p(*h3.scheme, h3.monitors);
    for (AppId a = 0; a < 3; a++) {
        h3.monitors[a].active = true;
        h3.feedZipf(a, kTarget * 2, 0.7, 80000);
    }
    h3.refreshProfiles(50);
    p.reconfigure(1000000);
    for (AppId a = 0; a < 3; a++)
        EXPECT_LE(p.lcState(a).sBoost, kLlc / 3);
}

TEST_F(UbikFixture, SlackControllerRampsOnGoodLatencies)
{
    warm(0.05);
    // Feed consistently comfortable request latencies: the miss slack
    // budget must grow from zero.
    for (int i = 0; i < 200; i++)
        policy->onRequestComplete(0, kDeadline / 2);
    EXPECT_GT(policy->lcState(0).missSlack, 0.0);
}

TEST_F(UbikFixture, SlackControllerBacksOffOnViolations)
{
    warm(0.05);
    for (int i = 0; i < 200; i++)
        policy->onRequestComplete(0, kDeadline / 2);
    double high = policy->lcState(0).missSlack;
    for (int i = 0; i < 50; i++)
        policy->onRequestComplete(0, kDeadline * 3);
    EXPECT_LT(policy->lcState(0).missSlack, high);
}

TEST_F(UbikFixture, SlackShrinksActiveSize)
{
    warm(0.10);
    // Pump the controller, then re-run sizing.
    for (int i = 0; i < 500; i++)
        policy->onRequestComplete(0, kDeadline / 4);
    h.feedZipf(0, kTarget * 2, 0.7, 120000);
    h.feedZipf(1, kLlc, 0.6, 120000);
    h.feedZipf(2, kLlc, 0.6, 120000);
    h.refreshProfiles(50);
    policy->reconfigure(2000000);
    const UbikLcState &st = policy->lcState(0);
    EXPECT_LT(st.sActive, st.sActiveStrict);
}

TEST_F(UbikFixture, WatermarkFallsBackToStrictSizes)
{
    warm(0.10);
    for (int i = 0; i < 500; i++)
        policy->onRequestComplete(0, kDeadline / 4);
    h.feedZipf(0, kTarget * 2, 0.7, 120000);
    h.feedZipf(1, kLlc, 0.6, 120000);
    h.feedZipf(2, kLlc, 0.6, 120000);
    h.refreshProfiles(50);
    policy->reconfigure(2000000);
    ASSERT_LT(policy->lcState(0).sActive,
              policy->lcState(0).sActiveStrict);

    // Boost, then hammer the circuit with real misses and no would-be
    // misses: the watermark must fire and restore strict sizes.
    h.monitors[0].active = false;
    policy->onIdle(0, 2100000);
    h.monitors[0].active = true;
    policy->onActive(0, 2200000);
    std::uint64_t before = policy->watermarkInterrupts();
    UmonProbe unsampled;
    for (int i = 0; i < 5000; i++)
        policy->onAccess(0, unsampled, /*miss=*/true, 2200000 + i);
    EXPECT_GT(policy->watermarkInterrupts(), before);
    EXPECT_EQ(policy->lcState(0).sActive,
              policy->lcState(0).sActiveStrict);
}

TEST_F(UbikFixture, StrictModeIgnoresRequestFeedback)
{
    warm(0.0);
    policy->onRequestComplete(0, kDeadline * 10);
    EXPECT_EQ(policy->lcState(0).missSlack, 0.0);
}

TEST_F(UbikFixture, ReconfigureIsIdempotentWhenQuiet)
{
    warm();
    std::uint64_t t1 = h.scheme->targetSize(1);
    // No new activity: a second reconfigure must not thrash targets
    // wildly (idle apps keep their last profile).
    policy->reconfigure(2000000);
    std::uint64_t t2 = h.scheme->targetSize(1);
    EXPECT_NEAR(static_cast<double>(t2), static_cast<double>(t1),
                static_cast<double>(4 * linesPerBucket(kLlc)));
}

} // namespace
} // namespace ubik
