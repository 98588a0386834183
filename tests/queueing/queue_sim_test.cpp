/**
 * @file
 * Tests for the multi-worker queueing simulator (src/queueing/):
 * classical queueing-theory cross-checks (M/D/1 and lognormal M/G/1
 * Pollaczek-Khinchine, Little's law, pooling), the §3.3
 * interference/abort tradeoffs, and configuration validation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "queueing/queue_sim.h"

namespace ubik {
namespace {

QueueSimParams
md1(double load, double service_cycles = 1e5)
{
    QueueSimParams p;
    p.workers = 1;
    p.service = ServiceDistribution::constant(service_cycles);
    p.meanInterarrival = service_cycles / load;
    p.requests = 20000;
    p.warmup = 2000;
    return p;
}

TEST(QueueSim, CompletesExactRequestCount)
{
    QueueSimParams p = md1(0.3);
    p.requests = 777;
    p.warmup = 50;
    QueueSimResult r = QueueSim(p, 1).run();
    EXPECT_EQ(r.latencies.count(), 777u);
    EXPECT_EQ(r.serviceTimes.count(), 777u);
}

TEST(QueueSim, LowLoadLatencyIsServiceTime)
{
    QueueSimParams p = md1(0.02);
    p.requests = 2000;
    QueueSimResult r = QueueSim(p, 2).run();
    // Almost never queues: sojourn ~= service.
    EXPECT_NEAR(r.latencies.mean(), r.serviceTimes.mean(),
                0.02 * r.serviceTimes.mean());
    EXPECT_NEAR(r.serviceTimes.mean(), 1e5, 2.0);
}

TEST(QueueSim, MatchesPollaczekKhinchine)
{
    // M/D/1: Wq = rho * E[S] / (2 * (1 - rho)).
    for (double rho : {0.3, 0.5, 0.7}) {
        QueueSimParams p = md1(rho);
        QueueSimResult r = QueueSim(p, 42).run();
        double es = 1e5;
        double expected_w = es + rho * es / (2.0 * (1.0 - rho));
        EXPECT_NEAR(r.latencies.mean(), expected_w, 0.08 * expected_w)
            << "rho = " << rho;
    }

    // M/G/1 with lognormal service of mean m and shape sigma, so
    // E[S^2] = m^2 e^(sigma^2): Wq = lambda m^2 e^(sigma^2) / (2 (1 -
    // rho)). The bound is 8% of Wq; at 200k requests the worst of
    // seeds 1..40 was 5.5%, while the M/D/1 or M/M/1 second moment
    // would miss Wq by 22% or more.
    const double m = 1e5;
    for (double sigma : {0.5, 1.0})
        for (double rho : {0.3, 0.5, 0.7}) {
            QueueSimParams p = md1(rho, m);
            p.service = ServiceDistribution::lognormal(m, sigma);
            p.requests = 200000;
            QueueSimResult r = QueueSim(p, 42).run();
            double lambda = rho / m;
            double wq = lambda * m * m * std::exp(sigma * sigma) /
                        (2.0 * (1.0 - rho));
            EXPECT_NEAR(r.latencies.mean(), m + wq, 0.08 * wq)
                << "sigma = " << sigma << ", rho = " << rho;
        }
}

TEST(QueueSim, LittlesLawHolds)
{
    for (double rho : {0.2, 0.6}) {
        QueueSimParams p = md1(rho);
        QueueSimResult r = QueueSim(p, 7).run();
        double lambda = 1.0 / p.meanInterarrival;
        double l_from_w = lambda * r.latencies.mean();
        EXPECT_NEAR(r.meanInSystem, l_from_w, 0.08 * l_from_w)
            << "rho = " << rho;
    }
}

TEST(QueueSim, LatencyExplodesNearSaturation)
{
    double w_low = QueueSim(md1(0.3), 5).run().latencies.mean();
    double w_high = QueueSim(md1(0.95), 5).run().latencies.mean();
    EXPECT_GT(w_high, 3.0 * w_low);
}

TEST(QueueSim, PooledWorkersBeatSingleWorkerQueueing)
{
    // Same per-worker load: one pooled M/D/4 vs an M/D/1. Pooling
    // cuts queueing delay (the §3.3 upside of multiple workers).
    QueueSimParams one = md1(0.7);
    QueueSimParams four = one;
    four.workers = 4;
    four.meanInterarrival = one.meanInterarrival / 4.0;
    double wq1 =
        QueueSim(one, 3).run().latencies.mean() - 1e5;
    double wq4 =
        QueueSim(four, 3).run().latencies.mean() - 1e5;
    EXPECT_LT(wq4, 0.5 * wq1);
}

TEST(QueueSim, InterferenceInflatesService)
{
    QueueSimParams p = md1(0.6);
    p.workers = 4;
    p.meanInterarrival /= 4.0;
    QueueSimResult clean = QueueSim(p, 9).run();
    p.interferenceFactor = 0.3;
    QueueSimResult noisy = QueueSim(p, 9).run();
    EXPECT_GT(noisy.serviceTimes.mean(),
              1.05 * clean.serviceTimes.mean());
    EXPECT_GT(noisy.latencies.tailMean(95.0),
              clean.latencies.tailMean(95.0));
}

TEST(QueueSim, InterferenceMonotoneInFactor)
{
    QueueSimParams p = md1(0.5);
    p.workers = 3;
    p.meanInterarrival /= 3.0;
    double prev = 0;
    for (double f : {0.0, 0.2, 0.4, 0.8}) {
        p.interferenceFactor = f;
        double w = QueueSim(p, 11).run().latencies.mean();
        EXPECT_GE(w, prev * 0.999);
        prev = w;
    }
}

TEST(QueueSim, SingleWorkerNeverAborts)
{
    QueueSimParams p = md1(0.8);
    p.abortProb = 1.0; // aborts need concurrency; k=1 has none
    QueueSimResult r = QueueSim(p, 13).run();
    EXPECT_EQ(r.aborts, 0u);
}

TEST(QueueSim, AbortsDegradeTailWithConcurrency)
{
    QueueSimParams p = md1(0.5);
    p.workers = 4;
    p.meanInterarrival /= 4.0;
    p.requests = 8000;
    QueueSimResult clean = QueueSim(p, 17).run();
    p.abortProb = 0.15;
    QueueSimResult aborty = QueueSim(p, 17).run();
    EXPECT_GT(aborty.aborts, 0u);
    EXPECT_GT(aborty.latencies.tailMean(95.0),
              clean.latencies.tailMean(95.0));
}

TEST(QueueSim, AbortCapBoundsRestarts)
{
    QueueSimParams p = md1(0.9);
    p.workers = 2;
    p.meanInterarrival /= 2.0;
    p.abortProb = 1.0; // would livelock without the cap
    p.maxAborts = 3;
    p.requests = 500;
    p.warmup = 50;
    QueueSimResult r = QueueSim(p, 19).run();
    EXPECT_EQ(r.latencies.count(), 500u);
    EXPECT_LE(r.aborts, 3u * (500u + 50u));
}

TEST(QueueSim, SaturationFracTracksLoad)
{
    QueueSimResult low = QueueSim(md1(0.1), 23).run();
    QueueSimResult high = QueueSim(md1(0.9), 23).run();
    EXPECT_LT(low.saturationFrac, 0.2);
    EXPECT_GT(high.saturationFrac, 0.7);
    EXPECT_NEAR(low.offeredLoad, 0.1, 1e-9);
    EXPECT_NEAR(high.offeredLoad, 0.9, 1e-9);
}

TEST(QueueSim, DeterministicUnderSeed)
{
    QueueSimParams p = md1(0.6);
    p.workers = 2;
    p.abortProb = 0.1;
    p.interferenceFactor = 0.2;
    p.requests = 2000;
    double a = QueueSim(p, 31).run().latencies.mean();
    double b = QueueSim(p, 31).run().latencies.mean();
    double c = QueueSim(p, 32).run().latencies.mean();
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(QueueSim, RejectsBadConfigs)
{
    QueueSimParams p = md1(0.5);
    p.workers = 0;
    EXPECT_EXIT(QueueSim(p, 1), testing::ExitedWithCode(1), "worker");
    p = md1(0.5);
    p.meanInterarrival = 0;
    EXPECT_EXIT(QueueSim(p, 1), testing::ExitedWithCode(1),
                "interarrival");
    p = md1(0.5);
    p.abortProb = 1.5;
    EXPECT_EXIT(QueueSim(p, 1), testing::ExitedWithCode(1), "abort");
    p = md1(0.5);
    p.interferenceFactor = -0.1;
    EXPECT_EXIT(QueueSim(p, 1), testing::ExitedWithCode(1),
                "interference");
    // A degenerate config that used to slip through construction and
    // only misbehave at run() time: zero measured requests, which
    // produced empty recorders feeding 0-latency "results" into every
    // downstream ratio. (The sibling degenerate case, an all-zero
    // service distribution, is unconstructible — the
    // ServiceDistribution factories assert positive work — but
    // QueueSim validates service.mean() > 0 anyway in case a new
    // factory forgets.)
    p = md1(0.5);
    p.requests = 0;
    EXPECT_EXIT(QueueSim(p, 1), testing::ExitedWithCode(1),
                "request");
}

TEST(QueueSim, WarmupOnlyConfigStillMeasures)
{
    // requests counts *measured* requests, so warmup-heavy configs
    // remain valid as long as requests >= 1.
    QueueSimParams p = md1(0.3);
    p.requests = 1;
    p.warmup = 100;
    QueueSimResult r = QueueSim(p, 1).run();
    EXPECT_EQ(r.latencies.count(), 1u);
    EXPECT_GT(r.latencies.mean(), 0.0);
}

/** Load sweep: sojourn time is monotone in load for every worker
 *  count and service shape (a property the Fig 1a curves rely on). */
class QueueLoadSweep
    : public testing::TestWithParam<std::tuple<std::uint32_t, int>>
{
};

TEST_P(QueueLoadSweep, SojournMonotoneInLoad)
{
    auto [workers, shape] = GetParam();
    ServiceDistribution dist =
        shape == 0 ? ServiceDistribution::constant(1e5)
        : shape == 1
            ? ServiceDistribution::lognormal(1e5, 0.5)
            : ServiceDistribution::multimodal(
                  {{0.7, 5e4, 0.1}, {0.3, 2e5, 0.1}});
    double prev = 0;
    for (double rho : {0.2, 0.4, 0.6, 0.8}) {
        QueueSimParams p;
        p.workers = workers;
        p.service = dist;
        p.meanInterarrival =
            dist.mean() / (rho * static_cast<double>(workers));
        p.requests = 6000;
        p.warmup = 600;
        double w = QueueSim(p, 101).run().latencies.mean();
        EXPECT_GT(w, prev * 0.98)
            << "workers=" << workers << " shape=" << shape
            << " rho=" << rho;
        prev = w;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, QueueLoadSweep,
    testing::Combine(testing::Values(1u, 2u, 4u),
                     testing::Values(0, 1, 2)));

} // namespace
} // namespace ubik
