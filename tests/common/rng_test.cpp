/**
 * @file
 * Tests for the deterministic RNG and its distributions. Every
 * stochastic component of the simulator flows through these, so the
 * statistical properties checked here (means, ranges, skew) underpin
 * the workload models' calibration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace ubik {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentAndDeterministic)
{
    Rng a(7);
    Rng f1 = a.fork();
    // Re-create: same parent seed, same fork order => same stream.
    Rng b(7);
    Rng f2 = b.fork();
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(f1.next(), f2.next());
    // Fork differs from parent continuation.
    EXPECT_NE(a.next(), f1.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 100000; i++) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, UniformRange)
{
    Rng rng(4);
    for (int i = 0; i < 10000; i++) {
        double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; i++) {
        std::uint64_t v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // all values hit
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng rng(6);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; i++) {
        std::uint64_t v = rng.uniformInt(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(8);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++) {
        double e = rng.exponential(250.0);
        ASSERT_GE(e, 0.0);
        sum += e;
    }
    EXPECT_NEAR(sum / n, 250.0, 2.5);
}

TEST(Rng, NormalMoments)
{
    Rng rng(9);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++) {
        double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, LognormalMean)
{
    // E[exp(mu + sigma Z)] = exp(mu + sigma^2/2).
    Rng rng(10);
    double mu = std::log(1000.0), sigma = 0.5;
    double expect = std::exp(mu + sigma * sigma / 2);
    double sum = 0;
    const int n = 300000;
    for (int i = 0; i < n; i++)
        sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n / expect, 1.0, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceProbability)
{
    Rng rng(12);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; i++)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

class ZipfTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfTest, RangeAndSkew)
{
    const double theta = GetParam();
    const std::uint64_t n = 1000;
    ZipfDistribution zipf(n, theta);
    Rng rng(13);
    std::vector<std::uint64_t> counts(n, 0);
    const int draws = 200000;
    for (int i = 0; i < draws; i++) {
        std::uint64_t v = zipf(rng);
        ASSERT_LT(v, n);
        counts[v]++;
    }
    // Rank 0 must be the most popular for any positive skew, and the
    // head must dominate the tail increasingly with theta.
    std::uint64_t max_count =
        *std::max_element(counts.begin(), counts.end());
    EXPECT_EQ(counts[0], max_count);
    double head = 0, tail = 0;
    for (std::uint64_t i = 0; i < n; i++)
        (i < n / 10 ? head : tail) += static_cast<double>(counts[i]);
    if (theta >= 0.8) {
        EXPECT_GT(head, tail); // strong skew: top 10% > rest
    }
    EXPECT_GT(head / draws, 0.1); // always more than proportional
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfTest,
                         ::testing::Values(0.2, 0.6, 0.8, 0.99, 1.2));

/**
 * High-skew head-mass correctness against the exact Zipf pmf,
 * p(rank) = rank^-theta / sum_k k^-theta, computed in-test. The theta
 * grid straddles the implementation's mode boundary: 0.99 samples via
 * the Gray et al. quantile approximation, 0.995/0.999/1.0/1.2 via the
 * exact CDF table — the query-popularity regime the paper's LC
 * workloads run at, where a biased head changes every hot-set hit
 * rate downstream.
 */
class ZipfHeadMass : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfHeadMass, MatchesExactPmf)
{
    const double theta = GetParam();
    const std::uint64_t n = 1000;
    const int draws = 200000;

    // Exact normalization and head probabilities.
    double zeta_n = 0;
    for (std::uint64_t k = 1; k <= n; k++)
        zeta_n += std::pow(static_cast<double>(k), -theta);
    auto exact = [&](std::uint64_t rank) {
        return std::pow(static_cast<double>(rank + 1), -theta) /
               zeta_n;
    };

    ZipfDistribution zipf(n, theta);
    Rng rng(20260807);
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < draws; i++)
        counts[zipf(rng)]++;

    // Rank 0 and rank 1 probabilities. Both sampling modes resolve
    // the first two ranks via exact thresholds, so the only slack
    // needed is sampling noise (sigma ~= sqrt(p(1-p)/draws) < 0.0011;
    // 0.005 is ~5 sigma).
    double p0 = static_cast<double>(counts[0]) / draws;
    double p1 = static_cast<double>(counts[1]) / draws;
    EXPECT_NEAR(p0, exact(0), 0.005) << "theta = " << theta;
    EXPECT_NEAR(p1, exact(1), 0.005) << "theta = " << theta;

    // Top-10 head mass: the quantile approximation's known bias
    // lives in the mid-ranks, so allow 2% there; the exact-table mode
    // gets the sampling-noise-only budget.
    double head_obs = 0, head_exact = 0;
    for (std::uint64_t r = 0; r < 10; r++) {
        head_obs += static_cast<double>(counts[r]) / draws;
        head_exact += exact(r);
    }
    double tol = theta < 0.995 ? 0.02 : 0.008;
    EXPECT_NEAR(head_obs, head_exact, tol) << "theta = " << theta;

    // Expected head ordering survives sampling: rank probabilities
    // are nonincreasing over the first few ranks.
    for (std::uint64_t r = 0; r + 1 < 5; r++)
        EXPECT_GE(counts[r] + 3 * std::sqrt(double(counts[r]) + 1),
                  counts[r + 1])
            << "theta = " << theta << " rank " << r;
}

INSTANTIATE_TEST_SUITE_P(HighSkewThetas, ZipfHeadMass,
                         ::testing::Values(0.99, 0.995, 0.999, 1.0,
                                           1.2));

TEST(Zipf, HeadMassMonotoneInTheta)
{
    // More skew -> heavier head. Restricted to the exact-table
    // thetas: the Gray approximation at theta = 0.99 carries a ~1.5%
    // head-mass bias (bounded by MatchesExactPmf above), larger than
    // the true 0.99 -> 0.995 ordering gap, so including it here
    // would test the bias, not the ordering.
    const std::uint64_t n = 1000;
    const int draws = 200000;
    double prev = 0;
    for (double theta : {0.995, 0.999, 1.0, 1.2}) {
        ZipfDistribution zipf(n, theta);
        Rng rng(7);
        std::uint64_t head = 0;
        for (int i = 0; i < draws; i++)
            head += zipf(rng) < 10 ? 1 : 0;
        double mass = static_cast<double>(head) / draws;
        EXPECT_GT(mass, prev - 0.005) << "theta = " << theta;
        prev = mass;
    }
}

/** The exact-table CDF, built the way ZipfDistribution builds it. */
std::vector<double>
exactZipfCdf(std::uint64_t n, double theta)
{
    std::vector<double> cdf(n);
    double sum = 0;
    for (std::uint64_t i = 0; i < n; i++) {
        sum += std::pow(1.0 / static_cast<double>(i + 1), theta);
        cdf[i] = sum;
    }
    for (double &c : cdf)
        c /= sum;
    return cdf;
}

/** Binary-search sampling over the CDF: the exact-mode definition. */
std::uint64_t
lowerBoundRank(const std::vector<double> &cdf, double u)
{
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end())
        return cdf.size() - 1;
    return static_cast<std::uint64_t>(it - cdf.begin());
}

class ZipfExactTable
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>>
{
};

/**
 * The guide-table search must return std::lower_bound's index for
 * every u, in particular at the edges where a draw changes guide
 * bucket (k/n and its neighbours) and where it crosses a CDF entry.
 */
TEST_P(ZipfExactTable, BoundariesMatchLowerBound)
{
    const auto [theta, n] = GetParam();
    ZipfDistribution zipf(n, theta);
    const std::vector<double> cdf = exactZipfCdf(n, theta);
    auto check = [&](double u) {
        if (!(u >= 0.0 && u < 1.0))
            return;
        EXPECT_EQ(zipf.quantile(u), lowerBoundRank(cdf, u))
            << "theta " << theta << ", n " << n << ", u " << u;
    };
    auto around = [&](double u) {
        check(std::nextafter(u, 0.0));
        check(u);
        check(std::nextafter(u, 1.0));
    };
    for (std::uint64_t k = 0; k <= n && !HasFailure(); k++)
        around(static_cast<double>(k) / static_cast<double>(n));
    for (std::uint64_t i = 0; i < n && !HasFailure(); i++)
        around(cdf[i]);
    check(0.0);
    check(std::nextafter(1.0, 0.0));
}

TEST_P(ZipfExactTable, SeededDrawsMatchLowerBound)
{
    const auto [theta, n] = GetParam();
    ZipfDistribution zipf(n, theta);
    const std::vector<double> cdf = exactZipfCdf(n, theta);
    Rng rng(20261017), twin(20261017);
    for (int i = 0; i < 1000000; i++) {
        std::uint64_t got = zipf(rng);
        std::uint64_t want = lowerBoundRank(cdf, twin.uniform());
        if (got != want) {
            FAIL() << "theta " << theta << ", n " << n << ", draw " << i
                   << ": " << got << " != " << want;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ThetasAndSizes, ZipfExactTable,
    ::testing::Combine(::testing::Values(1.0, 1.1, 1.2),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{2},
                                         std::uint64_t{3},
                                         std::uint64_t{128},
                                         std::uint64_t{3072})));

/**
 * Gray-mode draws are bit-identical to the quantile formula with
 * every constant recomputed per draw, the way it was first written.
 */
TEST(Zipf, GrayDrawsMatchReferenceFormula)
{
    auto zeta = [](std::uint64_t n, double theta) {
        double sum = 0;
        for (std::uint64_t i = 1; i <= n; i++)
            sum += std::pow(1.0 / static_cast<double>(i), theta);
        return sum;
    };
    for (double theta : {0.25, 0.6, 0.9, 0.99}) {
        for (std::uint64_t n : {std::uint64_t{1000},
                                std::uint64_t{24576}}) {
            const double zetan = zeta(n, theta);
            const double alpha = 1.0 / (1.0 - theta);
            const double eta =
                (1.0 - std::pow(2.0 / static_cast<double>(n),
                                1.0 - theta)) /
                (1.0 - zeta(2, theta) / zetan);
            ZipfDistribution zipf(n, theta);
            Rng rng(99), twin(99);
            for (int i = 0; i < 200000; i++) {
                double u = twin.uniform();
                double uz = u * zetan;
                std::uint64_t want;
                if (uz < 1.0) {
                    want = 0;
                } else if (uz < 1.0 + std::pow(0.5, theta)) {
                    want = 1;
                } else {
                    double v = static_cast<double>(n) *
                               std::pow(eta * u - eta + 1.0, alpha);
                    want = std::min(static_cast<std::uint64_t>(v), n - 1);
                }
                std::uint64_t got = zipf(rng);
                if (got != want)
                    FAIL() << "theta " << theta << ", n " << n
                           << ", draw " << i << ": " << got
                           << " != " << want;
            }
        }
    }
}

TEST(Zipf, SingleElement)
{
    ZipfDistribution zipf(1, 0.9);
    Rng rng(14);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(zipf(rng), 0u);
}

TEST(DiscreteDistribution, RespectsWeights)
{
    DiscreteDistribution d({1.0, 2.0, 1.0});
    Rng rng(15);
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; i++)
        counts[d(rng)]++;
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.50, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.25, 0.01);
}

TEST(DiscreteDistribution, SingleBucket)
{
    DiscreteDistribution d({5.0});
    Rng rng(16);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(d(rng), 0u);
}

} // namespace
} // namespace ubik
