/**
 * @file
 * Chaos harness for the fleet fabric: in-process fleet workers run
 * under deterministic failpoint schedules (common/failpoint.h) and
 * the merged matrix must stay bit-identical to a clean single-engine
 * reference — the fabric's invariant, proven under injected faults,
 * not just under SIGKILL.
 *
 * Two gates, matched to what each schedule can guarantee:
 *  - schedules limited to append/fsync faults never perturb claim
 *    arbitration or cache visibility, so they gate zero duplicate
 *    computes AND byte-equality;
 *  - wilder (randomized) schedules may legally cause duplicate
 *    computes (e.g. a refresh fault hides a published record), so
 *    they gate byte-equality and completion only. Every duplicate is
 *    an identical deterministic value.
 *
 * Failpoints are process-global: references are computed before a
 * schedule is armed, and every test disarms in TearDown.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "sim/claim_store.h"
#include "sim/parallel_sweep.h"
#include "sim/result_cache.h"
#include "support/cache_test_util.h"

using namespace ubik;
using namespace ubik::test;

namespace {

class ChaosFleetTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpointReset(); }
    void TearDown() override { failpointReset(); }
};

/** A reference sweep (no fleet, no cache, no faults). */
std::vector<MixRunResult>
referenceResults(const std::vector<SweepJob> &jobs)
{
    MixRunner runner(cacheTestCfg());
    ParallelSweep sweep(runner, 2);
    return sweep.run(jobs);
}

struct ChaosRun
{
    std::vector<MixRunResult> results;
    SweepProgress last;
    CacheStats stats;
};

ChaosRun
runFleetWorker(const std::string &cache_dir, const std::string &id,
               const std::vector<SweepJob> &jobs)
{
    MixRunner runner(cacheTestCfg());
    std::unique_ptr<ResultCache> cache = ResultCache::open(cache_dir);
    runner.attachCache(cache.get());
    ParallelSweep sweep(runner, 2);
    sweep.attachCache(cache.get());
    FleetOptions opt;
    opt.workerId = id;
    opt.leaseTtlSec = 60.0;
    sweep.enableFleet(opt);
    ChaosRun out;
    out.results = sweep.run(
        jobs, [&](const SweepProgress &p) { out.last = p; });
    out.stats = cache->stats();
    return out;
}

} // namespace

TEST_F(ChaosFleetTest, AppendFaultScheduleKeepsZeroDuplicates)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> ref = referenceResults(jobs);

    // Append/fsync faults never perturb claim arbitration or cache
    // visibility (short writes are retried to completion; a failed
    // fsync only weakens crash durability), so this schedule gates
    // the full fleet invariant: byte-identical AND zero duplicates.
    failpointConfigure(
        "cache.append=short_write:9@2+;"
        "cache.fsync=err:EIO@p0.25,seed11");

    TempCacheDir dir("chaos_append");
    ChaosRun a, b;
    std::thread ta(
        [&] { a = runFleetWorker(dir.path(), "a", jobs); });
    std::thread tb(
        [&] { b = runFleetWorker(dir.path(), "b", jobs); });
    ta.join();
    tb.join();

    expectSameResults(a.results, ref);
    expectSameResults(b.results, ref);
    EXPECT_EQ(a.last.computed + b.last.computed, jobs.size());
    EXPECT_EQ(a.last.hits, 0u);
    EXPECT_EQ(b.last.hits, 0u);

    // The short-write schedule actually bit: records were landed via
    // remainder retries, and every one still reads back intact.
    EXPECT_GT(a.stats.appendRetries + b.stats.appendRetries, 0u);
    EXPECT_EQ(a.stats.storesDropped + b.stats.storesDropped, 0u);
    EXPECT_EQ(a.stats.corrupt + b.stats.corrupt, 0u);
    // The fsync faults bit too, so fleet mode put the caches in
    // durable mode on its own.
    EXPECT_GT(a.stats.fsyncDegraded + b.stats.fsyncDegraded, 0u);

    // A clean post-chaos worker reads a fully intact cache.
    failpointReset();
    ChaosRun c = runFleetWorker(dir.path(), "c", jobs);
    expectSameResults(c.results, ref);
    EXPECT_EQ(c.last.hits, jobs.size());
    EXPECT_EQ(c.last.computed, 0u);
    EXPECT_EQ(c.stats.corrupt, 0u);
}

TEST_F(ChaosFleetTest, PersistentAppendFailureDegradesToUncached)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> ref = referenceResults(jobs);

    TempCacheDir dir("chaos_drop");
    failpointConfigure("cache.append=err:EIO@*");
    ChaosRun r = runFleetWorker(dir.path(), "solo", jobs);

    // Nothing persists, but the worker keeps computing uncached and
    // the matrix is still bit-identical.
    expectSameResults(r.results, ref);
    EXPECT_EQ(r.last.computed, jobs.size());
    EXPECT_GT(r.stats.storesDropped, 0u);

    // A later clean worker finds an empty cache (nothing was ever
    // appended) and recomputes the same values.
    failpointReset();
    ChaosRun again = runFleetWorker(dir.path(), "after", jobs);
    expectSameResults(again.results, ref);
    EXPECT_EQ(again.last.computed, jobs.size());
}

TEST_F(ChaosFleetTest, UnusableClaimsDirFallsBackToSolo)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> ref = referenceResults(jobs);

    TempCacheDir dir("chaos_solo");
    // Block the claims *directory* with a plain file: ClaimStore's
    // create_directories fails, the store reports unusable, and the
    // fleet sweep must degrade to solo execution instead of dying.
    std::filesystem::create_directories(dir.path());
    {
        std::ofstream block(dir.path() + "/" + ClaimStore::kSubdir);
        block << "not a directory\n";
    }

    ChaosRun r = runFleetWorker(dir.path(), "stranded", jobs);
    expectSameResults(r.results, ref);
    EXPECT_EQ(r.last.computed, jobs.size());
    EXPECT_EQ(r.stats.soloFallbacks, 1u);
    // Solo still publishes through the cache: a healthy peer joining
    // later gets hits, not recomputes.
    EXPECT_GT(r.stats.stores, 0u);
}

TEST_F(ChaosFleetTest, RandomizedSeededSchedulesStayByteIdentical)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> ref = referenceResults(jobs);

    // Each seed expands to a different randomized-but-deterministic
    // schedule over the cache/claim sites. These can legally cause
    // duplicate computes (refresh faults hide published records;
    // claim faults disable dedup), so the gate is byte-equality and
    // completion. On failure the trace names the exact schedule —
    // replay with failpointConfigure(<schedule>) or
    // UBIK_FAILPOINTS=random:<seed>.
    for (std::uint64_t seed : {7ull, 1984ull, 31337ull}) {
        failpointConfigure("random:" + std::to_string(seed));
        SCOPED_TRACE("chaos seed " + std::to_string(seed) +
                     " schedule: " + failpointScheduleString());

        TempCacheDir dir(
            ("chaos_rand_" + std::to_string(seed)).c_str());
        ChaosRun a, b;
        std::thread ta(
            [&] { a = runFleetWorker(dir.path(), "a", jobs); });
        std::thread tb(
            [&] { b = runFleetWorker(dir.path(), "b", jobs); });
        ta.join();
        tb.join();

        expectSameResults(a.results, ref);
        expectSameResults(b.results, ref);
        // Every slot was filled exactly once per worker's view.
        EXPECT_EQ(a.last.done, jobs.size());
        EXPECT_EQ(b.last.done, jobs.size());
    }
}
