/**
 * @file
 * Tests for the statistics module: streaming moments, the latency
 * recorder (including the paper's tail-mean metric, §3.2), and
 * histograms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "stats/histogram.h"
#include "stats/latency_recorder.h"
#include "stats/streaming_stats.h"

namespace ubik {
namespace {

TEST(StreamingStats, Empty)
{
    StreamingStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.ci95(), 0.0);
}

TEST(StreamingStats, SingleValue)
{
    StreamingStats s;
    s.add(7.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 7.0);
    EXPECT_DOUBLE_EQ(s.min(), 7.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, KnownMoments)
{
    StreamingStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, NegativeValues)
{
    StreamingStats s;
    s.add(-5.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(StreamingStats, MergeMatchesCombined)
{
    StreamingStats a, b, all;
    for (int i = 0; i < 50; i++) {
        double x = std::sin(i) * 10;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmpty)
{
    StreamingStats a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    StreamingStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(StreamingStats, Ci95ShrinksWithSamples)
{
    StreamingStats small, large;
    for (int i = 0; i < 10; i++)
        small.add(i % 3);
    for (int i = 0; i < 1000; i++)
        large.add(i % 3);
    EXPECT_GT(small.ci95(), large.ci95());
}

TEST(StreamingStats, Ci95UsesStudentTForSmallSamples)
{
    // Pin the t-quantile at several sample sizes by dividing out the
    // stddev/sqrt(n) factor: n=2 -> t_1, n=8 -> t_7 (the paper's
    // 8-seed runs), n=30 -> t_29, and the asymptotic 1.96 beyond.
    auto tFactor = [](std::uint64_t n) {
        StreamingStats s;
        for (std::uint64_t i = 0; i < n; i++)
            s.add(i % 2 ? 1.0 : -1.0);
        return s.ci95() * std::sqrt(static_cast<double>(n)) /
               s.stddev();
    };
    EXPECT_NEAR(tFactor(2), 12.706, 1e-9);
    EXPECT_NEAR(tFactor(8), 2.365, 1e-9);
    EXPECT_NEAR(tFactor(30), 2.045, 1e-9);
    EXPECT_NEAR(tFactor(31), 1.96, 1e-9);
    // z = 1.96 at n = 8 would understate the interval by ~17%.
    EXPECT_GT(tFactor(8), 1.96);
}

// --- LatencyRecorder ---

/** percentile/tailMean/cdf/sorted() against a std::sort reference. */
void
expectMatchesSortReference(const std::vector<Cycles> &samples)
{
    LatencyRecorder r;
    for (Cycles c : samples)
        r.record(c);
    std::vector<Cycles> ref = samples;
    std::sort(ref.begin(), ref.end());
    const std::size_t n = ref.size();
    ASSERT_EQ(r.sorted(), ref) << "n=" << n;
    for (double pct : {0.1, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9,
                       100.0}) {
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(n)));
        rank = std::min(std::max<std::size_t>(rank, 1), n);
        EXPECT_EQ(r.percentile(pct), static_cast<double>(ref[rank - 1]))
            << "n=" << n << " pct=" << pct;
        double sum = 0; // ascending, as tailMean sums
        for (std::size_t i = rank - 1; i < n; i++)
            sum += static_cast<double>(ref[i]);
        EXPECT_EQ(r.tailMean(pct),
                  sum / static_cast<double>(n - (rank - 1)))
            << "n=" << n << " pct=" << pct;
    }
    for (std::size_t i = 0; i < n; i += 1 + n / 40) {
        for (Cycles x : {ref[i], ref[i] - 1, ref[i] + 1}) {
            double want =
                static_cast<double>(
                    std::upper_bound(ref.begin(), ref.end(), x) -
                    ref.begin()) /
                static_cast<double>(n);
            EXPECT_EQ(r.cdf(x), want) << "n=" << n << " x=" << x;
        }
    }
}

TEST(LatencyRecorder, RadixSortMatchesStdSort)
{
    // From single samples through the simulator's ~180-sample mix
    // recorders to fleet tails of thousands of requests.
    std::mt19937_64 rng(42);
    for (std::size_t n : {1, 2, 3, 17, 180, 255, 256, 257, 3300, 5000}) {
        std::vector<Cycles> lat(n), dup(n), wide(n), flat(n, 7);
        for (std::size_t i = 0; i < n; i++) {
            lat[i] = 1000 + rng() % 2000000;    // cycle latencies
            dup[i] = 100 * (rng() % 8);         // heavy duplicates
            const unsigned shift = rng() % 64;
            wide[i] = rng() >> shift;           // values >= 2^32
        }
        wide[0] = ~0ull;
        expectMatchesSortReference(lat);
        expectMatchesSortReference(dup);
        expectMatchesSortReference(wide);
        expectMatchesSortReference(flat);
    }
}

TEST(LatencyRecorder, RadixSortedRecorderStaysCorrectAfterMerge)
{
    std::mt19937_64 rng(7);
    LatencyRecorder a, b;
    std::vector<Cycles> all;
    for (int i = 0; i < 600; i++) {
        Cycles c = (rng() % 3 == 0) ? (1ull << 40) + rng() % 999
                                    : rng() % 100000;
        (i % 2 ? a : b).record(c);
        all.push_back(c);
    }
    EXPECT_GT(a.percentile(50), 0.0); // sorts a once
    a.merge(b);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(a.sorted(), all);
}

TEST(LatencyRecorder, Empty)
{
    LatencyRecorder r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.mean(), 0.0);
    EXPECT_EQ(r.tailMean(), 0.0);
}

TEST(LatencyRecorder, MeanAndPercentile)
{
    LatencyRecorder r;
    for (Cycles c = 1; c <= 100; c++)
        r.record(c);
    EXPECT_DOUBLE_EQ(r.mean(), 50.5);
    // Nearest-rank: 95th percentile of 1..100 is 95.
    EXPECT_DOUBLE_EQ(r.percentile(95.0), 95.0);
    EXPECT_DOUBLE_EQ(r.percentile(50.0), 50.0);
}

TEST(LatencyRecorder, TailMeanIsMeanBeyondPercentile)
{
    LatencyRecorder r;
    for (Cycles c = 1; c <= 100; c++)
        r.record(c);
    // Mean of {95..100} = 97.5 (tail includes the percentile point).
    EXPECT_DOUBLE_EQ(r.tailMean(95.0), 97.5);
    // Whole distribution at pct -> 0: every sample is in the tail.
    EXPECT_DOUBLE_EQ(r.tailMean(1.0), 50.5);
    EXPECT_DOUBLE_EQ(r.tailMean(100.0), 100.0);
}

TEST(LatencyRecorder, TailMeanNearestRankAlignment)
{
    // The tail must start at the nearest-rank percentile sample —
    // the same sample percentile() reports — for every n, including
    // the exact-integer-rank case the old floor() indexing got wrong
    // (n = 20, pct = 95: rank ceil(0.95 * 20) = 19, so the tail is
    // {19, 20}, not {20} alone).
    LatencyRecorder r;
    for (Cycles c = 1; c <= 20; c++)
        r.record(c);
    EXPECT_DOUBLE_EQ(r.percentile(95.0), 19.0);
    EXPECT_DOUBLE_EQ(r.tailMean(95.0), 19.5);

    // Non-integer rank: ceil(0.95 * 21) = 20 -> tail {20, 21}.
    r.record(21);
    EXPECT_DOUBLE_EQ(r.percentile(95.0), 20.0);
    EXPECT_DOUBLE_EQ(r.tailMean(95.0), 20.5);

    // Tiny n degenerates to the max, never an out-of-range rank.
    LatencyRecorder one;
    one.record(7);
    EXPECT_DOUBLE_EQ(one.tailMean(95.0), 7.0);
    EXPECT_DOUBLE_EQ(one.tailMean(100.0), 7.0);
}

TEST(LatencyRecorder, TailMeanContainsPercentileSample)
{
    // Cross-check against percentile() over many n: the tail mean is
    // the mean of sorted[rank-1 ..], so it always includes the
    // percentile sample and never dips below it.
    for (int n = 1; n <= 200; n++) {
        LatencyRecorder r;
        for (Cycles c = 1; c <= static_cast<Cycles>(n); c++)
            r.record(c);
        double p = r.percentile(95.0);
        std::size_t rank = static_cast<std::size_t>(p); // samples 1..n
        double sum = 0;
        for (std::size_t v = rank; v <= static_cast<std::size_t>(n);
             v++)
            sum += static_cast<double>(v);
        double expect =
            sum / static_cast<double>(n - rank + 1);
        EXPECT_DOUBLE_EQ(r.tailMean(95.0), expect) << "n = " << n;
        EXPECT_GE(r.tailMean(95.0), p);
    }
}

TEST(LatencyRecorder, TailMeanResistsGaming)
{
    // The anti-gaming property (§3.2): degrading requests beyond the
    // measured percentile *must* move the metric, unlike a plain
    // percentile.
    LatencyRecorder honest, gamed;
    for (int i = 0; i < 100; i++) {
        honest.record(100);
        gamed.record(i < 97 ? 100 : 10000); // top 3% destroyed
    }
    EXPECT_DOUBLE_EQ(honest.percentile(95.0), gamed.percentile(95.0));
    EXPECT_GT(gamed.tailMean(95.0), 2.0 * honest.tailMean(95.0));
}

TEST(LatencyRecorder, MergeCombinesSamples)
{
    LatencyRecorder a, b;
    a.record(10);
    b.record(20);
    b.record(30);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
}

TEST(LatencyRecorder, RecordAfterQueryInvalidatesCache)
{
    LatencyRecorder r;
    r.record(10);
    EXPECT_DOUBLE_EQ(r.percentile(50.0), 10.0);
    r.record(20);
    r.record(30);
    EXPECT_DOUBLE_EQ(r.percentile(100.0), 30.0);
}

TEST(LatencyRecorder, Cdf)
{
    LatencyRecorder r;
    for (Cycles c : {10, 20, 30, 40})
        r.record(c);
    EXPECT_DOUBLE_EQ(r.cdf(5), 0.0);
    EXPECT_DOUBLE_EQ(r.cdf(20), 0.5);
    EXPECT_DOUBLE_EQ(r.cdf(45), 1.0);
}

TEST(LatencyRecorder, SortedCopy)
{
    LatencyRecorder r;
    r.record(30);
    r.record(10);
    r.record(20);
    auto s = r.sorted();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0], 10u);
    EXPECT_EQ(s[2], 30u);
}

TEST(LatencyRecorder, Clear)
{
    LatencyRecorder r;
    r.record(1);
    r.clear();
    EXPECT_TRUE(r.empty());
}

class TailMeanProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(TailMeanProperty, TailMeanAtLeastPercentile)
{
    // The mean beyond a percentile can never be below the percentile
    // value itself.
    double pct = GetParam();
    LatencyRecorder r;
    std::uint64_t x = 88172645463325252ull; // xorshift64 stream
    for (int i = 0; i < 5000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        r.record(x % 100000);
    }
    EXPECT_GE(r.tailMean(pct), r.percentile(pct));
}

INSTANTIATE_TEST_SUITE_P(Percentiles, TailMeanProperty,
                         ::testing::Values(50.0, 90.0, 95.0, 99.0));

// --- Histogram ---

TEST(Histogram, BasicBinning)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(1.5);
    h.add(1.6);
    h.add(9.9);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_DOUBLE_EQ(h.binFrac(1), 0.5);
}

TEST(Histogram, Weights)
{
    Histogram h(0.0, 4.0, 4);
    h.add(1.0, 10);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.binCount(1), 10u);
}

TEST(Histogram, BinEdges)
{
    Histogram h(2.0, 12.0, 5);
    EXPECT_DOUBLE_EQ(h.binLo(0), 2.0);
    EXPECT_DOUBLE_EQ(h.binLo(4), 10.0);
}

TEST(Histogram, SummaryNonEmpty)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.1);
    EXPECT_FALSE(h.summary().empty());
}

} // namespace
} // namespace ubik
