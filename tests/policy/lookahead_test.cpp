/**
 * @file
 * Tests for UCP's Lookahead allocator, especially the non-convex
 * (cache-fitting) case the plain greedy algorithm gets wrong.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "policy/lookahead.h"

namespace ubik {
namespace {

std::vector<double>
linearCurve(double start, double end, std::size_t points)
{
    std::vector<double> v(points);
    for (std::size_t i = 0; i < points; i++)
        v[i] = start + (end - start) * static_cast<double>(i) /
                           static_cast<double>(points - 1);
    return v;
}

std::uint64_t
total(const std::vector<std::uint64_t> &a)
{
    return std::accumulate(a.begin(), a.end(), std::uint64_t{0});
}

TEST(Lookahead, EmptyInputs)
{
    EXPECT_TRUE(lookaheadAllocate({}, 10).empty());
}

TEST(Lookahead, SingleAppGetsUsefulSpace)
{
    LookaheadInput in;
    in.curve = linearCurve(1000, 0, 11);
    auto alloc = lookaheadAllocate({in}, 10);
    EXPECT_EQ(alloc[0], 10u);
}

TEST(Lookahead, SymmetricAppsSplitEvenly)
{
    // With strictly diminishing returns, identical apps must split
    // the budget almost evenly (linear curves tie on marginal utility
    // and the deterministic tie-break may hand one app everything,
    // which is also correct — hence the concave curve here).
    LookaheadInput a, b;
    a.curve = b.curve = {1000, 500, 300, 200, 150, 120,
                         100,  90,  85,  82,  80};
    auto alloc = lookaheadAllocate({a, b}, 10);
    EXPECT_EQ(alloc[0] + alloc[1], 10u);
    EXPECT_NEAR(static_cast<double>(alloc[0]), 5.0, 1.0);
}

TEST(Lookahead, SteeperCurveWins)
{
    LookaheadInput steep, flat;
    steep.curve = linearCurve(1000, 0, 11);  // 100 misses/bucket
    flat.curve = linearCurve(100, 90, 11);   // 1 miss/bucket
    auto alloc = lookaheadAllocate({steep, flat}, 10);
    EXPECT_GE(alloc[0], 8u);
}

TEST(Lookahead, StepCurveGetsItsStep)
{
    // Cache-fitting app: no utility until 6 buckets, then a cliff.
    // Plain greedy would starve it; Lookahead's per-unit extension
    // search must give it all 6.
    LookaheadInput fitting, friendly;
    fitting.curve = {1000, 1000, 1000, 1000, 1000, 1000, 0,
                     0,    0,    0,    0};
    friendly.curve = linearCurve(300, 200, 11); // 10 misses/bucket
    auto alloc = lookaheadAllocate({fitting, friendly}, 10);
    EXPECT_GE(alloc[0], 6u);
}

TEST(Lookahead, StepTooExpensiveIsSkipped)
{
    // If the budget cannot cover the step, the fitting app gets
    // nothing useful and the friendly app takes the space.
    LookaheadInput fitting, friendly;
    fitting.curve = {1000, 1000, 1000, 1000, 1000, 1000, 1000,
                     1000, 0,    0,    0};
    friendly.curve = linearCurve(300, 100, 11);
    auto alloc = lookaheadAllocate({fitting, friendly}, 5);
    EXPECT_GE(alloc[1], 5u);
}

TEST(Lookahead, WeightBiasesAllocation)
{
    // Same curves, but app 0's misses cost 10x more (MLP weighting):
    // it must win the contested buckets.
    LookaheadInput a, b;
    a.curve = b.curve = linearCurve(1000, 900, 11);
    a.weight = 10.0;
    b.weight = 1.0;
    // Add a diminishing region so the split is contested.
    a.curve = b.curve = {1000, 500, 300, 200, 150, 120,
                         100,  90,  85,  82,  80};
    a.weight = 10.0;
    auto alloc = lookaheadAllocate({a, b}, 10);
    EXPECT_GT(alloc[0], alloc[1]);
}

TEST(Lookahead, MinBucketsHonored)
{
    LookaheadInput rich, poor;
    rich.curve = linearCurve(1000, 0, 11);
    poor.curve = linearCurve(10, 9, 11); // nearly useless
    poor.minBuckets = 3;
    auto alloc = lookaheadAllocate({rich, poor}, 10);
    EXPECT_GE(alloc[1], 3u);
}

TEST(Lookahead, BudgetFullyAllocatedWhenUtilityExhausted)
{
    // Flat curves: no utility anywhere, but hardware partitioning
    // needs the space assigned somewhere.
    LookaheadInput a, b;
    a.curve = std::vector<double>(11, 100.0);
    b.curve = std::vector<double>(11, 100.0);
    auto alloc = lookaheadAllocate({a, b}, 10);
    EXPECT_EQ(total(alloc), 10u);
}

TEST(Lookahead, EmptyCurvesStillAllocate)
{
    LookaheadInput a, b; // no UMON data yet
    auto alloc = lookaheadAllocate({a, b}, 8);
    EXPECT_LE(total(alloc), 8u);
}

class LookaheadBudgets : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LookaheadBudgets, NeverOverAllocates)
{
    std::uint64_t budget = GetParam();
    LookaheadInput a, b, c;
    a.curve = linearCurve(500, 0, 9);
    b.curve = {800, 800, 800, 100, 100, 100, 100, 50, 0};
    c.curve = linearCurve(50, 45, 9);
    auto alloc = lookaheadAllocate({a, b, c}, budget);
    EXPECT_LE(total(alloc), budget);
}

INSTANTIATE_TEST_SUITE_P(Budgets, LookaheadBudgets,
                         ::testing::Values(0u, 1u, 5u, 12u, 24u, 100u));

} // namespace
} // namespace ubik
