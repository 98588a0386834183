/**
 * @file
 * Distributed sweep fabric, end to end in-process: two fleet-enabled
 * engines (independent MixRunner + ResultCache instances, as separate
 * processes would have) share one cache directory and must fill one
 * sweep matrix with zero duplicate mix computations, bit-identical to
 * the single-engine reference. Plus crash recovery: an orphaned
 * (expired) lease from a "killed" worker is broken and its job
 * completed.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "sim/claim_store.h"
#include "sim/parallel_sweep.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "support/cache_test_util.h"

using namespace ubik;
using namespace ubik::test;

namespace {

/** A reference sweep (no fleet, no cache) for bit-comparison. */
std::vector<MixRunResult>
referenceResults(const std::vector<SweepJob> &jobs)
{
    MixRunner runner(cacheTestCfg());
    ParallelSweep sweep(runner, 2);
    return sweep.run(jobs);
}

struct FleetRun
{
    std::vector<MixRunResult> results;
    SweepProgress last;
    FleetCounters counters;
};

FleetRun
runFleetWorker(const std::string &cache_dir, const std::string &id,
               const std::vector<SweepJob> &jobs, double ttl_sec)
{
    ExperimentConfig cfg = cacheTestCfg();
    cfg.fleet = true;
    cfg.workerId = id;
    cfg.leaseTtlSec = ttl_sec;
    MixRunner runner(cfg);
    std::unique_ptr<ResultCache> cache = ResultCache::open(cache_dir);
    runner.attachCache(cache.get());
    ParallelSweep sweep(runner, 2);
    sweep.attachCache(cache.get());
    FleetRun out;
    out.results = sweep.run(
        jobs, [&](const SweepProgress &p) { out.last = p; });
    out.counters = sweep.fleetCounters();
    return out;
}

} // namespace

TEST(FleetExecutor, TwoWorkersSplitOneSweepWithoutDuplicates)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> ref = referenceResults(jobs);

    TempCacheDir dir("fleet_pair");
    FleetRun a, b;
    std::thread ta(
        [&] { a = runFleetWorker(dir.path(), "a", jobs, 60.0); });
    std::thread tb(
        [&] { b = runFleetWorker(dir.path(), "b", jobs, 60.0); });
    ta.join();
    tb.join();

    // Every result, from either worker, is bit-identical to the
    // single-engine run.
    expectSameResults(a.results, ref);
    expectSameResults(b.results, ref);

    // Each worker accounted for the full matrix...
    EXPECT_EQ(a.last.hits + a.last.computed + a.last.remote,
              jobs.size());
    EXPECT_EQ(b.last.hits + b.last.computed + b.last.remote,
              jobs.size());
    // ...and no mix was simulated twice: the claim protocol hands
    // each job to exactly one worker (cold cache, so hits are 0 and
    // computed splits the matrix exactly).
    EXPECT_EQ(a.last.hits, 0u);
    EXPECT_EQ(b.last.hits, 0u);
    EXPECT_EQ(a.last.computed + b.last.computed, jobs.size());

    // Steady state after a clean sweep: no claim records left behind.
    EXPECT_TRUE(ClaimStore::leases(dir.path()).empty());

    // A third (late) worker finds everything published: all hits,
    // nothing computed.
    FleetRun c = runFleetWorker(dir.path(), "c", jobs, 60.0);
    expectSameResults(c.results, ref);
    EXPECT_EQ(c.last.hits, jobs.size());
    EXPECT_EQ(c.last.computed, 0u);
}

TEST(FleetExecutor, OrphanedLeaseFromDeadWorkerIsReclaimed)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> ref = referenceResults(jobs);

    TempCacheDir dir("fleet_orphan");
    // A "worker" that claimed a mix and died: its lease exists, is
    // past the TTL, and no result was published.
    MixRunner keyRunner(cacheTestCfg());
    std::string key =
        mixResultKey(keyRunner.config(), jobs[0].mix, jobs[0].sut,
                     jobs[0].seed, keyRunner.outOfOrder());
    ClaimStore dead(dir.path(), "dead", 2.0);
    ASSERT_TRUE(dead.tryAcquire(key));
    namespace fs = std::filesystem;
    fs::last_write_time(dead.leasePath(key),
                        fs::file_time_type::clock::now() -
                            std::chrono::minutes(5));

    // A live worker with the same TTL must break the orphan, claim
    // the job itself, and still produce the reference matrix. The
    // break counts as the one lease it reclaimed.
    FleetRun r = runFleetWorker(dir.path(), "live", jobs, 2.0);
    expectSameResults(r.results, ref);
    EXPECT_EQ(r.last.computed, jobs.size());
    EXPECT_FALSE(fs::exists(dead.leasePath(key)));
    EXPECT_EQ(r.counters.reclaimed, 1u);
}

TEST(FleetExecutor, WorkerIsIdElseLeaseOwnerElseLocal)
{
    const SweepJob job = cacheTestJobs()[0];
    TempCacheDir dir("fleet_worker");
    std::unique_ptr<ResultCache> cache = ResultCache::open(dir.path());
    // The engine's name for a one-job sweep under `cfg`, checked
    // against what runSchemeSweep's [sweep-summary] line and its
    // accounting (the --accounting JSON's "worker") report.
    auto worker = [&](const ExperimentConfig &cfg) {
        MixRunner runner(cfg);
        const std::string name = ParallelSweep(runner, 1).worker();
        std::FILE *progress = std::tmpfile();
        EXPECT_NE(progress, nullptr);
        if (!progress)
            return name;
        SweepAccounting acct;
        runSchemeSweep(cfg, {job.sut}, {job.mix}, true, cache.get(),
                       &acct, progress);
        std::rewind(progress);
        std::string text;
        char buf[512];
        while (std::fgets(buf, sizeof buf, progress))
            text += buf;
        std::fclose(progress);
        EXPECT_NE(text.find("[sweep-summary] worker=" + name + " "),
                  std::string::npos)
            << text;
        EXPECT_EQ(acct.worker, name);
        return name;
    };

    ExperimentConfig cfg = cacheTestCfg();
    cfg.seeds = 1;
    EXPECT_EQ(worker(cfg), "local");
    cfg.workerId = "w7";
    EXPECT_EQ(worker(cfg), "w7");
    cfg.fleet = true;
    EXPECT_EQ(worker(cfg), "w7");
    cfg.workerId.clear();
    EXPECT_EQ(worker(cfg), ClaimStore::defaultOwner());
}
