/**
 * @file
 * Determinism tests for the parallel experiment engine: the same
 * sweep must produce byte-identical MixRunResults under UBIK_JOBS=1
 * and UBIK_JOBS=4, and the JobPool must run every job exactly once no
 * matter how jobs outnumber workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/log.h"
#include "sim/job_pool.h"
#include "sim/parallel_sweep.h"

namespace ubik {
namespace {

ExperimentConfig
fastCfg()
{
    ExperimentConfig cfg;
    cfg.scale = 16.0; // extra small for unit tests
    cfg.roiRequests = 30;
    cfg.warmupRequests = 10;
    cfg.seeds = 3;
    cfg.mixesPerLc = 1;
    return cfg;
}

/** The 12-job sweep from the issue: 2 schemes x 2 mixes x 3 seeds. */
std::vector<SweepJob>
twelveJobs()
{
    MixSpec a;
    a.name = "specjbb-lo/nfs";
    a.lc.app = lc_presets::specjbb();
    a.lc.load = 0.2;
    a.batch.name = "nfs";
    a.batch.apps = {
        batch_presets::make(BatchClass::Insensitive, 0),
        batch_presets::make(BatchClass::Friendly, 1),
        batch_presets::make(BatchClass::Streaming, 2),
    };
    MixSpec b = a;
    b.name = "specjbb-lo/ffs";
    b.batch.name = "ffs";
    b.batch.apps[0] = batch_presets::make(BatchClass::Friendly, 3);

    std::vector<SchemeUnderTest> schemes = {
        {"StaticLC", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::StaticLc, 0.0},
        {"LRU", SchemeKind::SharedLru, ArrayKind::Z4_52,
         PolicyKind::Lru, 0.0},
    };
    return buildSweepJobs(schemes, {a, b}, 3);
}

/** Byte-level equality: distinguishes -0.0/0.0 and any ULP drift. */
void
expectBitIdentical(double x, double y, const char *what, std::size_t i)
{
    std::uint64_t bx, by;
    std::memcpy(&bx, &x, sizeof(bx));
    std::memcpy(&by, &y, sizeof(by));
    EXPECT_EQ(bx, by) << what << " differs at job " << i << ": " << x
                      << " vs " << y;
}

void
expectSameResults(const std::vector<MixRunResult> &a,
                  const std::vector<MixRunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        expectBitIdentical(a[i].lcTailMean, b[i].lcTailMean,
                           "lcTailMean", i);
        expectBitIdentical(a[i].tailDegradation, b[i].tailDegradation,
                           "tailDegradation", i);
        expectBitIdentical(a[i].meanDegradation, b[i].meanDegradation,
                           "meanDegradation", i);
        expectBitIdentical(a[i].weightedSpeedup, b[i].weightedSpeedup,
                           "weightedSpeedup", i);
        ASSERT_EQ(a[i].batchSpeedups.size(), b[i].batchSpeedups.size());
        for (std::size_t k = 0; k < a[i].batchSpeedups.size(); k++)
            expectBitIdentical(a[i].batchSpeedups[k],
                               b[i].batchSpeedups[k], "batchSpeedup",
                               i);
        EXPECT_EQ(a[i].ubikDeboosts, b[i].ubikDeboosts);
        EXPECT_EQ(a[i].ubikDeadlineDeboosts, b[i].ubikDeadlineDeboosts);
        EXPECT_EQ(a[i].ubikWatermarks, b[i].ubikWatermarks);
    }
}

TEST(ParallelDeterminism, SameResultsWithOneAndFourWorkers)
{
    std::vector<SweepJob> jobs = twelveJobs();
    ASSERT_EQ(jobs.size(), 12u);

    // UBIK_JOBS=1: the legacy sequential path on the calling thread.
    setenv("UBIK_JOBS", "1", 1);
    ExperimentConfig cfg1 = ExperimentConfig::fromEnv();
    cfg1.scale = fastCfg().scale;
    cfg1.roiRequests = fastCfg().roiRequests;
    cfg1.warmupRequests = fastCfg().warmupRequests;
    MixRunner seqRunner(fastCfg());
    ParallelSweep seq(seqRunner, cfg1.jobs);
    ASSERT_EQ(seq.workers(), 1u);
    std::vector<MixRunResult> seqResults = seq.run(jobs);

    // UBIK_JOBS=4: four workers on (possibly fewer) cores.
    setenv("UBIK_JOBS", "4", 1);
    ExperimentConfig cfg4 = ExperimentConfig::fromEnv();
    MixRunner parRunner(fastCfg());
    ParallelSweep par(parRunner, cfg4.jobs);
    ASSERT_EQ(par.workers(), 4u);
    std::vector<MixRunResult> parResults = par.run(jobs);
    unsetenv("UBIK_JOBS");

    expectSameResults(seqResults, parResults);
}

TEST(ParallelDeterminism, EngineMatchesLegacySequentialLoop)
{
    std::vector<SweepJob> jobs = twelveJobs();

    // The pre-engine code path: one runner, runMix in job order.
    MixRunner legacy(fastCfg());
    std::vector<MixRunResult> expected;
    for (const auto &job : jobs)
        expected.push_back(legacy.runMix(job.mix, job.sut, job.seed));

    MixRunner runner(fastCfg());
    ParallelSweep engine(runner, 4);
    expectSameResults(expected, engine.run(jobs));
}

TEST(ParallelDeterminism, RepeatedEngineRunsAreStable)
{
    // Warm caches (second run) must not change any value.
    std::vector<SweepJob> jobs = twelveJobs();
    MixRunner runner(fastCfg());
    ParallelSweep engine(runner, 4);
    std::vector<MixRunResult> first = engine.run(jobs);
    std::vector<MixRunResult> second = engine.run(jobs);
    expectSameResults(first, second);
}

TEST(JobPool, NoJobDroppedOrDuplicatedUnderOversubscription)
{
    // Far more jobs than workers: every index must run exactly once.
    const std::size_t n = 10000;
    JobPool pool(3);
    EXPECT_EQ(pool.workers(), 3u);
    std::vector<std::atomic<int>> counts(n);
    for (auto &c : counts)
        c.store(0);
    pool.run(n, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; i++)
        ASSERT_EQ(counts[i].load(), 1) << "job " << i;
}

TEST(JobPool, MoreWorkersThanJobs)
{
    JobPool pool(8);
    std::vector<std::atomic<int>> counts(3);
    for (auto &c : counts)
        c.store(0);
    pool.run(3, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < 3; i++)
        EXPECT_EQ(counts[i].load(), 1);
}

TEST(JobPool, BackToBackBatchesOnOnePool)
{
    // Reusing a pool across batches must not leak claims between
    // them (a straggler from batch k stealing batch k+1's index 0).
    JobPool pool(4);
    for (int batch = 0; batch < 50; batch++) {
        const std::size_t n = 17;
        std::vector<std::atomic<int>> counts(n);
        for (auto &c : counts)
            c.store(0);
        pool.run(n, [&](std::size_t i) { counts[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; i++)
            ASSERT_EQ(counts[i].load(), 1)
                << "batch " << batch << " job " << i;
    }
}

TEST(JobPool, PropagatesJobExceptionAndSurvives)
{
    JobPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(20,
                          [&](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 5)
                                  throw std::runtime_error("job 5");
                          }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 20); // remaining jobs still ran
    // The pool is reusable after an exception.
    std::atomic<int> again{0};
    pool.run(7, [&](std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 7);
}

TEST(JobPool, JobsRunUnderTheSubmittersFatalTrap)
{
    // A fatal() on a pool thread reaches a trapping submitter as a
    // FatalError (the daemon's error response), not an exit. Every
    // job sleeps, so the pool threads take some of them.
    JobPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> threads;
    std::atomic<int> ran{0};
    {
        FatalTrap trap;
        EXPECT_THROW(pool.run(32,
                              [&](std::size_t i) {
                                  {
                                      std::lock_guard<std::mutex> l(mu);
                                      threads.insert(
                                          std::this_thread::get_id());
                                  }
                                  ran.fetch_add(1);
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(2));
                                  fatal("job %zu failed", i);
                              }),
                     FatalError);
    }
    EXPECT_EQ(ran.load(), 32);
    EXPECT_GT(threads.size(), 1u);
    // Untrapped again, the pool threads are untrapped too.
    std::atomic<int> trapped{0};
    pool.run(32, [&](std::size_t) {
        trapped.fetch_add(fatalTrapped());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    EXPECT_EQ(trapped.load(), 0);
}

TEST(JobPoolDeath, UntrappedFatalOnEveryWorkerIsReportedOnce)
{
    // Without a FatalTrap, a fatal() on a pool thread ends the
    // process. When every job fails, all four workers get there at
    // about the same time: the first reports and exits 1, the others
    // neither print nor run exit() alongside it. The pattern spans the
    // child's whole stderr, so it admits one "fatal:" line only.
    auto everyJobFails = [] {
        JobPool pool(4);
        pool.run(32, [](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            fatal("job %zu failed", i);
        });
    };
    EXPECT_EXIT(everyJobFails(), ::testing::ExitedWithCode(1),
                "^fatal: [^\n]*: job [0-9]+ failed\n$");
}

TEST(JobPool, SequentialPoolKeepsExceptionContract)
{
    // Same contract as the threaded path: remaining jobs still run,
    // first error rethrown after the batch drains.
    JobPool pool(1);
    std::vector<int> ran(10, 0);
    EXPECT_THROW(pool.run(10,
                          [&](std::size_t i) {
                              ran[i]++;
                              if (i == 2)
                                  throw std::runtime_error("job 2");
                          }),
                 std::runtime_error);
    for (std::size_t i = 0; i < 10; i++)
        EXPECT_EQ(ran[i], 1) << "job " << i;
}

TEST(JobPool, SequentialPoolRunsInOrder)
{
    JobPool pool(1);
    std::vector<std::size_t> order;
    pool.run(10, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < 10; i++)
        EXPECT_EQ(order[i], i);
}

TEST(JobPool, ZeroWorkersMeansAllCores)
{
    // UBIK_JOBS is ExperimentConfig::fromEnv's to read, not the pool's.
    setenv("UBIK_JOBS", "3", 1);
    unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(JobPool::workerCount(0), hw > 0 ? hw : 1u);
    unsetenv("UBIK_JOBS");
    EXPECT_EQ(JobPool::workerCount(5), 5u);
}

} // namespace
} // namespace ubik
