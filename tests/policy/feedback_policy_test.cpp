/**
 * @file
 * Tests for FeedbackPolicy, the long-term-adaptation QoS baseline:
 * controller direction, deadband, clamping, batch allocation, and the
 * one-interval-late reaction that makes it unsuitable for tails.
 */

#include <gtest/gtest.h>

#include "policy/feedback_policy.h"
#include "policy/policy_util.h"

#include "../support/test_harness.h"

namespace ubik {
namespace {

using test::PolicyHarness;

constexpr Cycles kDeadline = 1000000;

/** Feed `n` completed requests at a fixed latency. */
void
feedLatencies(FeedbackPolicy &p, AppId app, Cycles latency, int n = 20)
{
    for (int i = 0; i < n; i++)
        p.onRequestComplete(app, latency);
}

TEST(FeedbackPolicy, StartsFromStaticTarget)
{
    PolicyHarness h(24576, 2);
    h.makeLc(0, 8192, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    EXPECT_EQ(p.allocBuckets(0), linesToBuckets(8192, 24576));
}

TEST(FeedbackPolicy, GrowsWhenViolatingDeadline)
{
    PolicyHarness h(24576, 2);
    h.makeLc(0, 4096, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    std::uint64_t before = p.allocBuckets(0);
    feedLatencies(p, 0, 2 * kDeadline); // 2x over target
    h.refreshProfiles();
    p.reconfigure(0);
    EXPECT_GT(p.allocBuckets(0), before);
    EXPECT_EQ(h.scheme->targetSize(1),
              bucketsToLines(p.allocBuckets(0), 24576));
}

TEST(FeedbackPolicy, ShrinksWhenComfortable)
{
    PolicyHarness h(24576, 2);
    h.makeLc(0, 8192, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    std::uint64_t before = p.allocBuckets(0);
    feedLatencies(p, 0, kDeadline / 4); // far below target
    h.refreshProfiles();
    p.reconfigure(0);
    EXPECT_LT(p.allocBuckets(0), before);
}

TEST(FeedbackPolicy, DeadbandHoldsNearTarget)
{
    // Just under the deadline but above the comfort fraction:
    // neither grow nor shrink (anti-thrash deadband).
    PolicyHarness h(24576, 2);
    h.makeLc(0, 8192, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    std::uint64_t before = p.allocBuckets(0);
    feedLatencies(p, 0, static_cast<Cycles>(0.9 * kDeadline));
    h.refreshProfiles();
    p.reconfigure(0);
    EXPECT_EQ(p.allocBuckets(0), before);
}

TEST(FeedbackPolicy, StepIsClamped)
{
    PolicyHarness h(24576, 2);
    h.makeLc(0, 4096, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    std::uint64_t before = p.allocBuckets(0);
    feedLatencies(p, 0, 100 * kDeadline); // catastrophic violation
    h.refreshProfiles();
    p.reconfigure(0);
    EXPECT_EQ(p.allocBuckets(0), before + FeedbackPolicy::kMaxStepBuckets);
}

TEST(FeedbackPolicy, AllocationCappedPerLcApp)
{
    PolicyHarness h(24576, 2);
    h.makeLc(0, 4096, kDeadline);
    h.makeLc(1, 4096, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    // Persistent violations grow the allocation...
    for (int i = 0; i < 50; i++) {
        feedLatencies(p, 0, 10 * kDeadline);
        feedLatencies(p, 1, 10 * kDeadline);
        h.refreshProfiles();
        p.reconfigure(0);
    }
    // ...but never beyond an even split between the LC apps.
    EXPECT_LE(p.allocBuckets(0), kBuckets / 2);
    EXPECT_LE(p.allocBuckets(1), kBuckets / 2);
}

TEST(FeedbackPolicy, NeverShrinksToZero)
{
    PolicyHarness h(24576, 2);
    h.makeLc(0, 2048, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    for (int i = 0; i < 60; i++) {
        feedLatencies(p, 0, 1); // absurdly comfortable
        h.refreshProfiles();
        p.reconfigure(0);
    }
    EXPECT_GE(p.allocBuckets(0), 1u);
    EXPECT_GE(h.scheme->targetSize(1), linesPerBucket(24576));
}

TEST(FeedbackPolicy, HoldsAllocationWithNoRequests)
{
    // An idle interval gives the controller no signal; allocation
    // must hold (not decay), unlike UCP's low-utility collapse.
    PolicyHarness h(24576, 2);
    h.makeLc(0, 8192, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    std::uint64_t before = p.allocBuckets(0);
    h.feedZipf(1, 3000, 0.9, 50000); // only the batch app runs
    h.refreshProfiles();
    p.reconfigure(0);
    EXPECT_EQ(p.allocBuckets(0), before);
}

TEST(FeedbackPolicy, BatchAppsShareTheRemainder)
{
    PolicyHarness h(24576, 3);
    h.makeLc(0, 8192, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    h.feedZipf(1, 3000, 0.9, 50000);
    h.feedZipf(2, 3000, 0.9, 50000);
    h.refreshProfiles();
    p.reconfigure(0);
    std::uint64_t lc = h.scheme->targetSize(1);
    std::uint64_t b1 = h.scheme->targetSize(2);
    std::uint64_t b2 = h.scheme->targetSize(3);
    EXPECT_GT(b1, 0u);
    EXPECT_GT(b2, 0u);
    EXPECT_LE(lc + b1 + b2, 24576u);
    EXPECT_GE(lc + b1 + b2, 24576u - 3 * linesPerBucket(24576));
}

TEST(FeedbackPolicy, ReactsOneIntervalLate)
{
    // The §2.1 pathology this baseline exists to demonstrate: the
    // burst's own interval sees no growth; relief arrives only at
    // the *next* reconfiguration, after the tail damage is done.
    PolicyHarness h(24576, 2);
    h.makeLc(0, 4096, kDeadline);
    FeedbackPolicy p(*h.scheme, h.monitors);
    std::uint64_t during_burst = p.allocBuckets(0);
    feedLatencies(p, 0, 3 * kDeadline); // the burst suffers...
    h.refreshProfiles();
    p.reconfigure(0);
    // ...and only now does the allocation react.
    EXPECT_EQ(during_burst, linesToBuckets(4096, 24576));
    EXPECT_GT(p.allocBuckets(0), during_burst);
}

} // namespace
} // namespace ubik
