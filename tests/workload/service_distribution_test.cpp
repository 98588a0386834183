/**
 * @file
 * Tests for the per-request work distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "workload/service_distribution.h"

namespace ubik {
namespace {

double
sampleMean(const ServiceDistribution &d, int n = 100000,
           std::uint64_t seed = 1)
{
    Rng rng(seed);
    double sum = 0;
    for (int i = 0; i < n; i++)
        sum += d.sample(rng);
    return sum / n;
}

TEST(ServiceDistribution, ConstantIsConstant)
{
    auto d = ServiceDistribution::constant(5e5);
    Rng rng(1);
    for (int i = 0; i < 100; i++)
        EXPECT_DOUBLE_EQ(d.sample(rng), 5e5);
    EXPECT_DOUBLE_EQ(d.mean(), 5e5);
}

TEST(ServiceDistribution, LognormalMeanMatches)
{
    auto d = ServiceDistribution::lognormal(1e6, 0.5);
    EXPECT_DOUBLE_EQ(d.mean(), 1e6);
    EXPECT_NEAR(sampleMean(d, 300000) / 1e6, 1.0, 0.02);
}

TEST(ServiceDistribution, LognormalSigmaWidensTail)
{
    auto tight = ServiceDistribution::lognormal(1e6, 0.05);
    auto wide = ServiceDistribution::lognormal(1e6, 1.0);
    Rng r1(2), r2(2);
    double max_tight = 0, max_wide = 0;
    for (int i = 0; i < 20000; i++) {
        max_tight = std::max(max_tight, tight.sample(r1));
        max_wide = std::max(max_wide, wide.sample(r2));
    }
    EXPECT_GT(max_wide, 3 * max_tight);
}

TEST(ServiceDistribution, MultimodalMeanIsWeightedAverage)
{
    auto d = ServiceDistribution::multimodal({
        {0.5, 1e6, 0.0},
        {0.5, 3e6, 0.0},
    });
    EXPECT_DOUBLE_EQ(d.mean(), 2e6);
    EXPECT_NEAR(sampleMean(d) / 2e6, 1.0, 0.02);
}

TEST(ServiceDistribution, MultimodalDrawsMatchAPerDrawPicker)
{
    // The mode picker is built once, yet each draw is still bit for
    // bit what a picker built for that draw gives: one uniform picks
    // the mode, one more its jitter. Copies and scaled copies too.
    const std::vector<WorkMode> modes = {
        {0.2, 1e5, 0.1}, {0.5, 4e5, 0.0}, {0.3, 2e6, 0.3}};
    std::vector<double> weights;
    for (const WorkMode &m : modes)
        weights.push_back(m.weight);
    const ServiceDistribution d = ServiceDistribution::multimodal(modes);
    ServiceDistribution scaled = d;
    scaled.scale(0.5);
    Rng ref(9), a(9), b(9);
    for (int i = 0; i < 2000; i++) {
        const WorkMode &m = modes[DiscreteDistribution(weights)(ref)];
        const double u = 1.0 + ref.uniform(-m.jitterFrac, m.jitterFrac);
        EXPECT_EQ(d.sample(a), std::max(1000.0, m.meanInstr * u)) << i;
        EXPECT_EQ(scaled.sample(b),
                  std::max(1000.0, m.meanInstr * 0.5 * u))
            << i;
    }
}

TEST(ServiceDistribution, MultimodalModesDistinct)
{
    auto d = ServiceDistribution::multimodal({
        {0.7, 1e5, 0.0},
        {0.3, 1e7, 0.0},
    });
    Rng rng(3);
    int small = 0, large = 0;
    for (int i = 0; i < 10000; i++) {
        double v = d.sample(rng);
        if (v < 1e6)
            small++;
        else
            large++;
    }
    EXPECT_NEAR(small / 10000.0, 0.7, 0.03);
    EXPECT_NEAR(large / 10000.0, 0.3, 0.03);
}

TEST(ServiceDistribution, JitterStaysWithinBounds)
{
    auto d = ServiceDistribution::multimodal({{1.0, 1e6, 0.2}});
    Rng rng(4);
    for (int i = 0; i < 10000; i++) {
        double v = d.sample(rng);
        EXPECT_GE(v, 0.8e6 - 1);
        EXPECT_LE(v, 1.2e6 + 1);
    }
}

TEST(ServiceDistribution, FloorsAtThousandInstructions)
{
    auto d = ServiceDistribution::lognormal(1500, 3.0);
    Rng rng(5);
    for (int i = 0; i < 10000; i++)
        EXPECT_GE(d.sample(rng), 1000.0);
}

class ScaleTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ScaleTest, ScalePreservesShape)
{
    double f = GetParam();
    auto kinds = {
        ServiceDistribution::constant(2e6),
        ServiceDistribution::lognormal(2e6, 0.4),
        ServiceDistribution::multimodal({{0.6, 1e6, 0.1},
                                         {0.4, 4e6, 0.1}}),
    };
    for (auto d : kinds) {
        double mean_before = d.mean();
        double before = sampleMean(d, 50000, 7);
        d.scale(f);
        EXPECT_NEAR(d.mean(), mean_before * f,
                    1e-6 * d.mean() + 1e-6);
        double after = sampleMean(d, 50000, 7);
        EXPECT_NEAR(after / before, f, 0.05 * f + 0.05);
    }
}

INSTANTIATE_TEST_SUITE_P(Factors, ScaleTest,
                         ::testing::Values(0.125, 0.5, 1.0));

} // namespace
} // namespace ubik
