/**
 * @file
 * Determinism tests for the persistent result cache: cold, warm, and
 * mixed hit/miss sweeps must produce byte-identical MixRunResult
 * vectors across 1 and N workers — extending the engine guarantee
 * parallel_determinism_test.cpp enforces to cached reruns — and a
 * fully warm sweep must perform zero mix recomputation.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "support/cache_test_util.h"

namespace ubik {
namespace {

using test::TempCacheDir;
using test::cacheTestCfg;
using test::cacheTestJobs;
using test::expectSameResults;

/** Run `jobs` through a fresh runner/engine against `dir` (empty =
 *  no cache), returning results and the cache's final stats. */
std::vector<MixRunResult>
runWithCache(const std::vector<SweepJob> &jobs, const std::string &dir,
             unsigned workers, CacheStats *stats_out = nullptr)
{
    MixRunner runner(cacheTestCfg());
    std::unique_ptr<ResultCache> cache = ResultCache::open(dir);
    runner.attachCache(cache.get());
    ParallelSweep engine(runner, workers);
    engine.attachCache(cache.get());
    std::vector<MixRunResult> results = engine.run(jobs);
    if (stats_out && cache)
        *stats_out = cache->stats();
    return results;
}

TEST(CacheDeterminism, ColdRunMatchesUncachedRun)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    ASSERT_EQ(jobs.size(), 8u);
    std::vector<MixRunResult> expected = runWithCache(jobs, "", 4);

    TempCacheDir dir("cold");
    CacheStats st;
    std::vector<MixRunResult> cold =
        runWithCache(jobs, dir.path(), 1, &st);
    expectSameResults(expected, cold);
    EXPECT_EQ(st.mixHits, 0u);
    EXPECT_EQ(st.mixMisses, jobs.size());
    EXPECT_GE(st.stores, jobs.size()); // mixes + baselines persisted
}

TEST(CacheDeterminism, WarmRunBitIdenticalAtAnyWorkerCount)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> expected = runWithCache(jobs, "", 4);

    TempCacheDir dir("warm");
    runWithCache(jobs, dir.path(), 2); // populate

    for (unsigned workers : {1u, 4u}) {
        CacheStats st;
        std::vector<MixRunResult> warm =
            runWithCache(jobs, dir.path(), workers, &st);
        expectSameResults(expected, warm);
        // Zero mix recomputation: every job served from the store,
        // nothing new written, no baseline ever consulted.
        EXPECT_EQ(st.mixHits, jobs.size()) << workers << " workers";
        EXPECT_EQ(st.mixMisses, 0u) << workers << " workers";
        EXPECT_EQ(st.stores, 0u) << workers << " workers";
        EXPECT_EQ(st.misses, 0u) << workers << " workers";
    }
}

TEST(CacheDeterminism, MixedHitMissRunBitIdentical)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    std::vector<MixRunResult> expected = runWithCache(jobs, "", 4);

    // Populate only the first three jobs, then sweep all eight: the
    // warm three are served from disk while the cold five simulate,
    // concurrently, on three workers.
    TempCacheDir dir("mixed");
    std::vector<SweepJob> subset(jobs.begin(), jobs.begin() + 3);
    runWithCache(subset, dir.path(), 2);

    CacheStats st;
    std::vector<MixRunResult> mixed =
        runWithCache(jobs, dir.path(), 3, &st);
    expectSameResults(expected, mixed);
    EXPECT_EQ(st.mixHits, 3u);
    EXPECT_EQ(st.mixMisses, jobs.size() - 3);
}

TEST(CacheDeterminism, ProgressReportsHitsVersusComputed)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    TempCacheDir dir("progress");
    std::vector<SweepJob> subset(jobs.begin(), jobs.begin() + 3);
    runWithCache(subset, dir.path(), 2);

    MixRunner runner(cacheTestCfg());
    std::unique_ptr<ResultCache> cache = ResultCache::open(dir.path());
    runner.attachCache(cache.get());
    ParallelSweep engine(runner, 3);
    engine.attachCache(cache.get());

    std::mutex mu;
    std::vector<SweepProgress> seen;
    engine.run(jobs, [&](const SweepProgress &p) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(p);
    });

    // First callback: the hit scan (3 hits, nothing computed yet).
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.front().hits, 3u);
    EXPECT_EQ(seen.front().computed, 0u);
    EXPECT_EQ(seen.front().done, 3u);
    // One callback per computed job, consistent counters throughout.
    EXPECT_EQ(seen.size(), 1 + (jobs.size() - 3));
    for (const SweepProgress &p : seen) {
        EXPECT_EQ(p.total, jobs.size());
        EXPECT_EQ(p.hits, 3u);
        EXPECT_EQ(p.done, p.hits + p.computed);
    }
    // The last-by-done callback covers the whole sweep.
    std::size_t maxDone = 0;
    for (const SweepProgress &p : seen)
        maxDone = std::max(maxDone, p.done);
    EXPECT_EQ(maxDone, jobs.size());
}

/** An explicit one-scheme spec over masstree mixes at `loads`. */
ScenarioSpec
masstreeAtLoads(const std::vector<const char *> &loads)
{
    std::string mixes;
    for (const char *load : loads)
        mixes += std::string(mixes.empty() ? "" : ", ") +
                 "{\"lc\": \"masstree\", \"load\": " + load +
                 ", \"batch\": [{\"class\": \"f\"}, {\"class\": "
                 "\"t\"}, {\"class\": \"s\"}]}";
    return scenarioFromJson(Json::parseOrDie(
        "{\"name\": \"near-loads\", \"source\": \"explicit\", "
        "\"seeds\": 1, \"schemes\": [{\"label\": \"StaticLC\", "
        "\"policy\": \"StaticLC\"}], \"mixes\": [" +
            mixes + "]}",
        "test"));
}

TEST(CacheDeterminism, NearbyLoadsAreNotServedEachOthersResults)
{
    // Loads 0.2 and 0.2000001 print alike to six decimals. The second
    // mix must get the result it gets alone, whether its neighbour
    // ran first or it is served from the neighbour run's cache.
    TempCacheDir dir("near_loads");
    const ScenarioSpec both = masstreeAtLoads({"0.2", "0.2000001"});
    const ScenarioSpec alone = masstreeAtLoads({"0.2000001"});
    ExperimentConfig cfg = scenarioConfig(both, cacheTestCfg());
    cfg.jobs = 1;
    cfg.cacheDir = dir.path();
    const ScenarioResult pair = runScenario(both, cfg, nullptr, nullptr);
    const ScenarioResult warm = runScenario(alone, cfg, nullptr, nullptr);
    cfg.cacheDir.clear();
    const ScenarioResult cold = runScenario(alone, cfg, nullptr, nullptr);

    ASSERT_EQ(pair.sweeps.at(0).runs.size(), 2u);
    expectSameResults({pair.sweeps[0].runs[1]}, cold.sweeps.at(0).runs);
    expectSameResults(warm.sweeps.at(0).runs, cold.sweeps[0].runs);
}

TEST(CacheDeterminism, RenamedScenarioIsServedFromTheCache)
{
    // Labels and names no simulation reads: a scenario that differs
    // from a cached one only in them is all hits, with equal runs.
    TempCacheDir dir("renamed");
    const ScenarioSpec spec = masstreeAtLoads({"0.2", "0.6"});
    ScenarioSpec renamed = spec;
    renamed.name = "renamed";
    renamed.schemes.at(0).label = "Renamed";
    for (std::size_t i = 0; i < renamed.mixes.size(); i++) {
        renamed.mixes[i].name = "renamed-" + std::to_string(i);
        renamed.mixes[i].batchName = "renamed-batch";
    }
    ExperimentConfig cfg = scenarioConfig(spec, cacheTestCfg());
    cfg.jobs = 2;
    cfg.cacheDir = dir.path();
    const ScenarioResult first = runScenario(spec, cfg, nullptr, nullptr);
    const ScenarioResult again =
        runScenario(renamed, cfg, nullptr, nullptr);

    EXPECT_EQ(again.accounting.jobs, 2u);
    EXPECT_EQ(again.accounting.hits, again.accounting.jobs);
    EXPECT_EQ(again.accounting.computed, 0u);
    EXPECT_EQ(again.sweeps.at(0).label, "Renamed");
    EXPECT_EQ(again.sweeps[0].mixNames.at(1), "renamed-1");
    expectSameResults(first.sweeps.at(0).runs, again.sweeps[0].runs);
}

TEST(CacheDeterminism, UncachedProgressStillReportsTotals)
{
    // Without a cache every job is computed; the callback must say so.
    std::vector<SweepJob> all = cacheTestJobs();
    std::vector<SweepJob> jobs(all.begin(), all.begin() + 2);
    MixRunner runner(cacheTestCfg());
    ParallelSweep engine(runner, 2);
    std::mutex mu;
    std::vector<SweepProgress> seen;
    engine.run(jobs, [&](const SweepProgress &p) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(p);
    });
    ASSERT_EQ(seen.size(), jobs.size());
    for (const SweepProgress &p : seen) {
        EXPECT_EQ(p.hits, 0u);
        EXPECT_EQ(p.total, jobs.size());
        EXPECT_EQ(p.done, p.computed);
    }
}

} // namespace
} // namespace ubik
