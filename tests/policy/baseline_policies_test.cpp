/**
 * @file
 * Tests for the baseline policies (§4): UCP, StaticLC, OnOff, and the
 * no-op LRU policy, each driven through the PolicyHarness.
 */

#include <gtest/gtest.h>

#include "policy/lru_policy.h"
#include "policy/onoff_policy.h"
#include "policy/policy_util.h"
#include "policy/static_lc_policy.h"
#include "policy/ucp_policy.h"
#include "sim/cmp.h"

#include "../support/test_harness.h"

namespace ubik {
namespace {

using test::PolicyHarness;

TEST(PolicyUtil, BucketConversionsRoundTrip)
{
    const std::uint64_t total = 24576;
    EXPECT_EQ(linesPerBucket(total), 96u);
    EXPECT_EQ(bucketsToLines(10, total), 960u);
    EXPECT_EQ(linesToBuckets(960, total), 10u);
    // Rounding: 47 lines on 96-line buckets -> 0; 49 -> 1.
    EXPECT_EQ(linesToBuckets(47, total), 0u);
    EXPECT_EQ(linesToBuckets(49, total), 1u);
}

TEST(PolicyUtil, TinyCacheBucketFloor)
{
    EXPECT_EQ(linesPerBucket(10), 1u); // never zero
}

TEST(LruPolicy, DoesNothing)
{
    PolicyHarness h(4096, 2);
    LruPolicy p(*h.scheme, h.monitors);
    auto t0 = h.scheme->targetSize(1);
    p.reconfigure(0);
    p.onActive(0, 0);
    p.onIdle(0, 0);
    EXPECT_EQ(h.scheme->targetSize(1), t0);
}

TEST(UcpPolicy, AllocatesWholeCache)
{
    PolicyHarness h(4096, 3);
    UcpPolicy p(*h.scheme, h.monitors);
    h.feedZipf(0, 2000, 0.9, 50000);
    h.feedZipf(1, 2000, 0.9, 50000);
    h.feedZipf(2, 2000, 0.9, 50000);
    h.refreshProfiles();
    p.reconfigure(0);
    std::uint64_t sum = 0;
    for (AppId a = 0; a < 3; a++)
        sum += h.scheme->targetSize(a + 1);
    // Everything (modulo bucket rounding) is handed out.
    EXPECT_GE(sum, 4096u - 3 * linesPerBucket(4096));
    EXPECT_LE(sum, 4096u);
}

TEST(UcpPolicy, CacheHungryAppWins)
{
    PolicyHarness h(4096, 2);
    UcpPolicy p(*h.scheme, h.monitors);
    // App 0: big skewed working set (lots of utility); app 1 streams.
    h.feedZipf(0, 3000, 0.9, 80000);
    h.feedStream(1, 80000);
    h.refreshProfiles();
    p.reconfigure(0);
    EXPECT_GT(h.scheme->targetSize(1), 2 * h.scheme->targetSize(2));
}

TEST(UcpPolicy, IgnoresLcStatus)
{
    // The paper's core complaint about UCP: an idle LC app's low
    // utility reads as "give it nothing".
    PolicyHarness h(4096, 2);
    h.makeLc(0, 2048, 1000000);
    UcpPolicy p(*h.scheme, h.monitors);
    // LC app idle all interval: no accesses at all.
    h.feedZipf(1, 3000, 0.9, 80000);
    h.refreshProfiles();
    p.reconfigure(0);
    // The batch app gets nearly everything despite the LC target.
    EXPECT_LT(h.scheme->targetSize(1), 2048u / 2);
}

TEST(StaticLcPolicy, LcTargetPinnedRegardlessOfActivity)
{
    PolicyHarness h(4096, 3);
    h.makeLc(0, 2048, 1000000);
    StaticLcPolicy p(*h.scheme, h.monitors);
    h.feedZipf(1, 3000, 0.9, 60000);
    h.feedZipf(2, 3000, 0.9, 60000);
    h.refreshProfiles();
    h.monitors[0].active = false; // idle: StaticLC must not care
    p.reconfigure(0);
    std::uint64_t lc = h.scheme->targetSize(1);
    EXPECT_NEAR(static_cast<double>(lc), 2048.0,
                static_cast<double>(linesPerBucket(4096)));
    // Batch apps share the remainder.
    std::uint64_t batch = h.scheme->targetSize(2) +
                          h.scheme->targetSize(3);
    EXPECT_LE(batch, 4096u - lc);
    EXPECT_GT(batch, (4096u - lc) / 2);
}

TEST(StaticLcPolicy, IdleActiveHooksAreNoOps)
{
    PolicyHarness h(4096, 2);
    h.makeLc(0, 2048, 1000000);
    StaticLcPolicy p(*h.scheme, h.monitors);
    h.feedZipf(1, 3000, 0.9, 40000);
    h.refreshProfiles();
    p.reconfigure(0);
    auto lc = h.scheme->targetSize(1);
    p.onIdle(0, 100);
    EXPECT_EQ(h.scheme->targetSize(1), lc);
    p.onActive(0, 200);
    EXPECT_EQ(h.scheme->targetSize(1), lc);
}

TEST(OnOffPolicy, FullTargetWhenActiveZeroWhenIdle)
{
    PolicyHarness h(4096, 2);
    h.makeLc(0, 2048, 1000000);
    OnOffPolicy p(*h.scheme, h.monitors);
    h.feedZipf(1, 3000, 0.9, 40000);
    h.refreshProfiles();
    h.monitors[0].active = true;
    p.reconfigure(0);
    EXPECT_EQ(h.scheme->targetSize(1), 2048u);

    h.monitors[0].active = false;
    p.onIdle(0, 100);
    EXPECT_EQ(h.scheme->targetSize(1), 0u);
    // Freed space flows to the batch app.
    EXPECT_GE(h.scheme->targetSize(2),
              4096u - 2 * linesPerBucket(4096));

    h.monitors[0].active = true;
    p.onActive(0, 200);
    EXPECT_EQ(h.scheme->targetSize(1), 2048u);
}

TEST(OnOffPolicy, PrecomputesAllActiveSubsets)
{
    PolicyHarness h(8192, 4);
    h.makeLc(0, 2048, 1000000);
    h.makeLc(1, 2048, 1000000);
    OnOffPolicy p(*h.scheme, h.monitors);
    h.feedZipf(2, 3000, 0.9, 40000);
    h.feedZipf(3, 3000, 0.9, 40000);
    h.refreshProfiles();
    h.monitors[0].active = true;
    h.monitors[1].active = true;
    p.reconfigure(0);

    // Toggle through all four subsets; batch targets must adapt
    // instantly (precomputed), and the total must stay within cache.
    struct Case
    {
        bool a0, a1;
    };
    for (Case c : {Case{true, true}, Case{true, false},
                   Case{false, true}, Case{false, false}}) {
        h.monitors[0].active = c.a0;
        h.monitors[1].active = c.a1;
        p.onIdle(0, 0); // applyCurrent() refresh via any hook
        std::uint64_t sum = 0;
        for (PartId q = 1; q <= 4; q++)
            sum += h.scheme->targetSize(q);
        EXPECT_LE(sum, 8192u + 4 * linesPerBucket(8192));
        EXPECT_EQ(h.scheme->targetSize(1), c.a0 ? 2048u : 0u);
        EXPECT_EQ(h.scheme->targetSize(2), c.a1 ? 2048u : 0u);
    }
}

TEST(PolicyNames, AreStable)
{
    // Specs, cache keys and reports spell each policy this way.
    EXPECT_STREQ(enumName(PolicyKind::Lru), "LRU");
    EXPECT_STREQ(enumName(PolicyKind::Ucp), "UCP");
    EXPECT_STREQ(enumName(PolicyKind::StaticLc), "StaticLC");
    EXPECT_STREQ(enumName(PolicyKind::OnOff), "OnOff");
    EXPECT_STREQ(enumName(PolicyKind::Ubik), "Ubik");
    EXPECT_STREQ(enumName(PolicyKind::Feedback), "Feedback");
}

} // namespace
} // namespace ubik
