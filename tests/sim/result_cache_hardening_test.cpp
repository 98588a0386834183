/**
 * @file
 * Hardening tests for the persistent result cache: a truncated or
 * garbage log must read as misses (never poisoned results or crashes)
 * and be rewritten by the next store; a record whose payload does not
 * decode must be hidden for good by its repair; stale cache files must
 * be removed at open, unread; and concurrent writers into the log,
 * threads of one instance or separate instances, must leave only
 * whole records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "support/cache_test_util.h"

namespace ubik {
namespace {

using test::TempCacheDir;
using test::expectBitIdentical;

MixRunResult
sampleResult(double salt)
{
    MixRunResult r;
    r.lcTailMean = 1000.0 + salt;
    r.tailDegradation = 1.0 + salt / 7.0;
    r.meanDegradation = 1.0 + salt / 11.0;
    r.weightedSpeedup = 1.0 + salt / 13.0;
    r.batchSpeedups = {salt, salt * 2, salt * 3};
    r.ubikDeboosts = static_cast<std::uint64_t>(salt * 17);
    return r;
}

/** The log's file name: the schema lives in it. */
std::string
logName()
{
    return "results.v" + std::to_string(kResultCacheSchemaVersion) +
           ".ubikcache";
}

/** A record with a valid checksum: `<key> <payload> <crc>` and a
 *  newline, the crc being FNV-1a over `<key> <payload>`. */
std::string
recordLine(const std::string &key, const std::string &payload)
{
    const std::string body = key + ' ' + payload;
    std::uint64_t crc = 0xcbf29ce484222325ull;
    for (unsigned char c : body) {
        crc ^= c;
        crc *= 0x100000001b3ull;
    }
    char crcText[17];
    std::snprintf(crcText, sizeof crcText, "%016llx",
                  static_cast<unsigned long long>(crc));
    return body + ' ' + crcText + '\n';
}

/** The single file under `dir`, the log (fails the test if != 1). */
std::string
onlyLogFile(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().string());
    EXPECT_EQ(files.size(), 1u);
    if (files.empty())
        return std::string();
    EXPECT_EQ(std::filesystem::path(files.front()).filename(), logName());
    return files.front();
}

TEST(ResultCacheHardening, TruncatedLogIsAMissAndGetsRewritten)
{
    TempCacheDir dir("truncate");
    const std::string key = "v1|hardening|truncate";
    const MixRunResult r = sampleResult(3.5);
    {
        ResultCache cache(dir.path());
        cache.storeMix(key, r);
    }

    // Chop the record's tail off, as a crashed or racing writer would.
    std::string log = onlyLogFile(dir.path());
    ASSERT_FALSE(log.empty());
    auto size = std::filesystem::file_size(log);
    std::filesystem::resize_file(log, size / 2);

    {
        ResultCache cache(dir.path());
        EXPECT_FALSE(cache.loadMix(key).has_value());
        EXPECT_GE(cache.stats().corrupt, 1u);
        // The next store repairs the entry...
        cache.storeMix(key, r);
        ASSERT_TRUE(cache.loadMix(key).has_value());
    }
    // ...durably: a fresh instance reads it back bit-exactly.
    ResultCache cache(dir.path());
    auto loaded = cache.loadMix(key);
    ASSERT_TRUE(loaded.has_value());
    expectBitIdentical(loaded->lcTailMean, r.lcTailMean, "lcTailMean",
                       0);
    EXPECT_EQ(loaded->batchSpeedups.size(), 3u);
}

TEST(ResultCacheHardening, GarbageLinesAreSkippedValidOnesKept)
{
    TempCacheDir dir("garbage");
    const std::string key = "v1|hardening|garbage";
    {
        ResultCache cache(dir.path());
        cache.storeMix(key, sampleResult(1.25));
    }
    std::string log = onlyLogFile(dir.path());
    ASSERT_FALSE(log.empty());
    {
        // Garbage before and after: random bytes, a wrong-checksum
        // record, a valid record behind the v7 layout's magic and kind
        // token, and a half-record with no newline.
        std::ofstream out(log, std::ios::app | std::ios::binary);
        out << "not a record at all\n";
        out << "v1|fake 0123456789abcdef,2,"
               "0000000000000000,0000000000000000,0000000000000000,"
               "0000000000000000,0000000000000000,0000000000000000 "
               "ffffffffffffffff\n";
        out << "U1 b " << recordLine("v1|old", "3ff0000000000000");
        out << "v1|torn 00112233";
    }
    ResultCache cache(dir.path());
    auto loaded = cache.loadMix(key);
    ASSERT_TRUE(loaded.has_value()); // the good record survives
    expectBitIdentical(loaded->tailDegradation,
                       sampleResult(1.25).tailDegradation,
                       "tailDegradation", 0);
    EXPECT_GE(cache.stats().corrupt, 4u);
    EXPECT_FALSE(cache.loadMix("v1|fake").has_value());
    EXPECT_FALSE(cache.loadDouble("v1|old").has_value());
}

/** The lines of the file at `path`. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

TEST(ResultCacheHardening, RepairOfAnUndecodablePayloadWinsAtLoad)
{
    // A record that passes its checksum but whose payload does not
    // decode (say, written by a build that changed a codec without a
    // schema bump) is a miss, and the value is recomputed and stored
    // again. The last record of a key wins at load, so from the next
    // run on the repair is served: one recompute, not one per run.
    // Replayed on a fleet-utilization log with one queue tail's
    // payload replaced by `zz` under a valid crc.
    TempCacheDir dir("undecodable");
    ExperimentConfig cfg = test::cacheTestCfg();
    cfg.seeds = 1;
    cfg.cacheDir = dir.path();
    const ScenarioSpec &spec =
        *ScenarioRegistry::instance().find("fleet-utilization");
    auto run = [&] {
        std::unique_ptr<ResultCache> cache = ResultCache::open(dir.path());
        runScenario(spec, cfg, cache.get(), nullptr);
        return cache->stats();
    };
    run();
    const std::string log = onlyLogFile(dir.path());
    std::vector<std::string> lines = readLines(log);
    auto qtail = std::find_if(lines.begin(), lines.end(),
                              [](const std::string &l) {
                                  return l.find("|qtail|") !=
                                         std::string::npos;
                              });
    ASSERT_NE(qtail, lines.end());
    *qtail = recordLine(qtail->substr(0, qtail->find(' ')), "zz");
    qtail->pop_back(); // its newline
    {
        std::ofstream out(log, std::ios::binary | std::ios::trunc);
        for (const std::string &l : lines)
            out << l << '\n';
    }

    CacheStats first = run();
    EXPECT_EQ(first.misses, 1u);
    EXPECT_EQ(first.stores, 1u);
    EXPECT_EQ(first.corrupt, 1u);
    EXPECT_EQ(readLines(log).size(), lines.size() + 1);

    CacheStats second = run();
    EXPECT_EQ(second.misses, 0u);
    EXPECT_EQ(second.stores, 0u);
    EXPECT_EQ(second.corrupt, 0u);
    EXPECT_EQ(readLines(log).size(), lines.size() + 1);
}

TEST(ResultCacheHardening, StaleFilesAreRemovedAtOpenUnread)
{
    // A directory filled by older builds: two per-hash shard files,
    // one holding a record in their layout
    // (`U1 <schema> <kind> <key> <payload> <crc>`) and one garbage,
    // the v7 log, whose records are `U1 <kind> <key> <payload> <crc>`,
    // and the log of another schema holding a record in the current
    // layout and stray bytes. An open removes all four without reading
    // them: nothing is served from them and nothing counts as corrupt.
    TempCacheDir dir("stale_files");
    std::filesystem::create_directories(dir.path());
    const std::string key = "v7|hardening|stale";
    const std::string one = "3ff0000000000000"; // 1.0
    {
        std::ofstream(dir.path() + "/shard_00.ubikcache")
            << "U1 7 b " << recordLine(key, one);
        std::ofstream(dir.path() + "/shard_3f.ubikcache")
            << "U1 7 b v7|garbage 0 0\n";
        std::ofstream(dir.path() + "/results.v7.ubikcache")
            << "U1 b " << recordLine(key, one);
        std::ofstream(dir.path() + "/results.v6.ubikcache")
            << recordLine(key, one) << "\x01\xff";
    }
    {
        ResultCache cache(dir.path());
        CacheStats st = cache.stats();
        EXPECT_EQ(st.evicted, 4u);
        EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
        EXPECT_FALSE(cache.loadDouble(key).has_value());
        EXPECT_EQ(cache.stats().corrupt, 0u);

        // A store then lands in the current schema's log.
        cache.storeDouble(key, 2.0);
        EXPECT_EQ(onlyLogFile(dir.path()),
                  dir.path() + "/" + logName());
    }
    // A reopen removes nothing and serves the stored value.
    ResultCache cache(dir.path());
    auto ipc = cache.loadDouble(key);
    ASSERT_TRUE(ipc.has_value());
    expectBitIdentical(*ipc, 2.0, "ipc", 0);
    CacheStats st = cache.stats();
    EXPECT_EQ(st.evicted, 0u);
    EXPECT_EQ(st.corrupt, 0u);
}

TEST(ResultCacheHardening, ConcurrentStoresIntoOneLogSerialize)
{
    // Hammer the log from four threads; every record must survive,
    // parseable and bit-exact, in a fresh instance.
    const std::size_t perThread = 10, threads = 4;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < perThread * threads; i++)
        keys.push_back("v1|conc|" + std::to_string(i));

    TempCacheDir dir("concurrent");
    {
        ResultCache cache(dir.path());
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < threads; t++)
            pool.emplace_back([&, t] {
                for (std::size_t i = 0; i < perThread; i++) {
                    std::size_t k = t * perThread + i;
                    cache.storeMix(keys[k],
                                   sampleResult(static_cast<double>(k)));
                }
            });
        for (auto &th : pool)
            th.join();
        EXPECT_EQ(cache.stats().stores, perThread * threads);
    }

    ResultCache cache(dir.path());
    for (std::size_t k = 0; k < keys.size(); k++) {
        auto loaded = cache.loadMix(keys[k]);
        ASSERT_TRUE(loaded.has_value()) << keys[k];
        expectBitIdentical(loaded->weightedSpeedup,
                           sampleResult(static_cast<double>(k))
                               .weightedSpeedup,
                           "weightedSpeedup", k);
    }
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ResultCacheHardening, ConcurrentSameKeyStoresStayConsistent)
{
    // All threads race to store the identical deterministic value
    // under one key (what racing sweep processes do): the entry must
    // stay unique in memory and clean on disk.
    TempCacheDir dir("samekey");
    const std::string key = "v1|hardening|samekey";
    const MixRunResult r = sampleResult(9.75);
    {
        ResultCache cache(dir.path());
        std::vector<std::thread> pool;
        for (int t = 0; t < 8; t++)
            pool.emplace_back([&] { cache.storeMix(key, r); });
        for (auto &th : pool)
            th.join();
    }
    ResultCache cache(dir.path());
    auto loaded = cache.loadMix(key);
    ASSERT_TRUE(loaded.has_value());
    expectBitIdentical(loaded->lcTailMean, r.lcTailMean, "lcTailMean",
                       0);
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ResultCacheHardening, ConcurrentInstancesAppendWholeRecords)
{
    // Two instances on one directory append as two processes would,
    // each under its own lock. Records of 1.2-1.4 KB cross the log's
    // 4 KiB block boundaries, where an append issued as two writes
    // lets the peer's record land between its halves. Every record
    // must reach a fresh reader whole.
    const std::size_t perWriter = 400, writers = 2;
    auto key = [](std::size_t k) {
        return "v1|hardening|whole|" + std::to_string(k);
    };
    auto result = [](std::size_t k) {
        MixRunResult r = sampleResult(static_cast<double>(k));
        r.batchSpeedups.assign(62 + k % 12, static_cast<double>(k));
        return r;
    };

    TempCacheDir dir("whole_records");
    {
        std::vector<std::thread> pool;
        for (std::size_t w = 0; w < writers; w++)
            pool.emplace_back([&, w] {
                ResultCache cache(dir.path());
                for (std::size_t i = 0; i < perWriter; i++)
                    cache.storeMix(key(w * perWriter + i),
                                   result(w * perWriter + i));
            });
        for (auto &th : pool)
            th.join();
    }

    ResultCache cache(dir.path());
    std::size_t whole = 0;
    for (std::size_t k = 0; k < writers * perWriter; k++) {
        auto loaded = cache.loadMix(key(k));
        if (loaded && loaded->batchSpeedups == result(k).batchSpeedups)
            whole++;
    }
    EXPECT_EQ(whole, writers * perWriter);
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

/** Arm a failpoint schedule for one scope, disarm on exit. */
struct FailpointGuard
{
    explicit FailpointGuard(const std::string &sched)
    {
        failpointConfigure(sched);
    }
    ~FailpointGuard() { failpointReset(); }
};

TEST(ResultCacheHardening, TornAppendAtEveryByteBoundaryRepairs)
{
    // Crash-consistency matrix: cut an append at every byte boundary
    // (via the cache.append torn failpoint, which writes K bytes and
    // then "crashes") and prove that (a) the earlier record is never
    // lost, (b) the torn record reads as a miss, and (c) the next
    // store repairs the log.
    const std::string keyA = "v1|hardening|torn|survivor";
    const std::string keyB = "v1|hardening|torn|victim";
    const MixRunResult ra = sampleResult(6.5);
    const MixRunResult rb = sampleResult(8.5);

    // Learn the victim record's on-disk length from a clean store.
    std::uintmax_t lineLen;
    {
        TempCacheDir scratch("torn_len");
        ResultCache cache(scratch.path());
        cache.storeMix(keyB, rb);
        lineLen = std::filesystem::file_size(
            onlyLogFile(scratch.path()));
    }
    ASSERT_GT(lineLen, 0u);

    for (std::uintmax_t cut = 0; cut < lineLen; cut++) {
        SCOPED_TRACE("append cut at byte " + std::to_string(cut) +
                     " of " + std::to_string(lineLen));
        TempCacheDir dir("torn_matrix");
        {
            ResultCache cache(dir.path());
            cache.storeMix(keyA, ra);
            FailpointGuard fp("cache.append=torn:" +
                              std::to_string(cut) + "@1");
            cache.storeMix(keyB, rb);
            EXPECT_EQ(cache.stats().storesDropped, 1u);
        }
        {
            // A fresh reader: the survivor is always intact. The
            // victim reads as a miss — except at the last boundary,
            // where the cut removed only the trailing newline and the
            // checksum-complete record is legitimately recovered.
            ResultCache cache(dir.path());
            auto a = cache.loadMix(keyA);
            ASSERT_TRUE(a.has_value()) << "earlier record lost";
            expectBitIdentical(a->lcTailMean, ra.lcTailMean,
                               "lcTailMean", 0);
            bool newlineOnlyCut = cut + 1 == lineLen;
            EXPECT_EQ(cache.loadMix(keyB).has_value(),
                      newlineOnlyCut);
            // The re-store repairs the log (newline-glue + fresh
            // record) without disturbing the survivor.
            cache.storeMix(keyB, rb);
            ASSERT_TRUE(cache.loadMix(keyB).has_value());
        }
        ResultCache cache(dir.path());
        auto a = cache.loadMix(keyA);
        auto b = cache.loadMix(keyB);
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        expectBitIdentical(a->weightedSpeedup, ra.weightedSpeedup,
                           "weightedSpeedup", 0);
        expectBitIdentical(b->weightedSpeedup, rb.weightedSpeedup,
                           "weightedSpeedup", 1);
    }
}

TEST(ResultCacheHardening, ShortWritesAreRetriedToCompletion)
{
    // Every fwrite is clipped to 3 bytes: the append loop must land
    // the record via remainder retries, bit-exact and uncorrupted.
    TempCacheDir dir("short_write");
    const std::string key = "v1|hardening|shortwrite";
    const MixRunResult r = sampleResult(5.25);
    {
        ResultCache cache(dir.path());
        FailpointGuard fp("cache.append=short_write:3@1+");
        cache.storeMix(key, r);
        CacheStats st = cache.stats();
        EXPECT_GT(st.appendRetries, 0u);
        EXPECT_EQ(st.storesDropped, 0u);
    }
    ResultCache cache(dir.path());
    auto loaded = cache.loadMix(key);
    ASSERT_TRUE(loaded.has_value());
    expectBitIdentical(loaded->lcTailMean, r.lcTailMean, "lcTailMean",
                       0);
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ResultCacheHardening, PersistentAppendErrorKeepsServingInMemory)
{
    // Appends that keep failing degrade to uncached operation: the
    // store is counted dropped, the worker's own instance still
    // serves the value, and nothing corrupt lands on disk.
    TempCacheDir dir("append_err");
    const std::string key = "v1|hardening|appenderr";
    const MixRunResult r = sampleResult(7.75);
    {
        ResultCache cache(dir.path());
        FailpointGuard fp("cache.append=err:EIO@*");
        cache.storeMix(key, r);
        EXPECT_EQ(cache.stats().storesDropped, 1u);
        auto mine = cache.loadMix(key);
        ASSERT_TRUE(mine.has_value()); // in-memory copy survives
        expectBitIdentical(mine->lcTailMean, r.lcTailMean,
                           "lcTailMean", 0);
    }
    // The record never reached disk: a fresh instance misses cleanly.
    ResultCache cache(dir.path());
    EXPECT_FALSE(cache.loadMix(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ResultCacheHardening, DurableFsyncFailureDegradesNotDies)
{
    TempCacheDir dir("fsync_err");
    const std::string key = "v1|hardening|fsyncerr";
    const MixRunResult r = sampleResult(2.25);
    {
        ResultCache cache(dir.path());
        cache.setDurable(true);
        FailpointGuard fp("cache.fsync=err:EIO@*");
        cache.storeMix(key, r);
        CacheStats st = cache.stats();
        EXPECT_EQ(st.fsyncDegraded, 1u);
        EXPECT_EQ(st.storesDropped, 0u);
    }
    // The record was still appended; only its crash-durability
    // guarantee was weakened.
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.loadMix(key).has_value());
}

/** Append one hand-made record with a valid checksum to the log
 *  under `dir`. */
void
appendRecord(const std::string &dir, const std::string &key,
             const std::string &payload)
{
    std::filesystem::create_directories(dir);
    std::ofstream out(dir + "/" + logName(),
                      std::ios::app | std::ios::binary);
    out << recordLine(key, payload);
}

TEST(ResultCacheHardening, HexFieldsAreExactlySixteenDigits)
{
    // A libc-style hex parser (strtoull) takes a leading space or
    // sign and would decode these to 0x1f, 0x1f and ~0. Records are
    // written with bare digits only, so anything else is corrupt, even
    // under a valid checksum.
    const std::string good = "000000000000001f";
    const std::string bad[] = {" 00000000000001f", "+00000000000001f",
                               "-000000000000001"};
    const std::string mixHead = "0000000000000000,0000000000000000,"
                                "0000000000000000,0000000000000000,1,"
                                "0000000000000000,";
    const std::string mixTail = ",0000000000000000,0000000000000000";
    const std::string lcHead = "0000000000000000,0000000000000000,"
                               "0000000000000000,0000000000000000,";
    for (std::size_t i = 0; i <= std::size(bad); i++) {
        const bool ok = i == std::size(bad);
        const std::string &field = ok ? good : bad[i];
        TempCacheDir dir("hexfield");
        const std::string tag = std::to_string(i);
        appendRecord(dir.path(), "v4|batch|" + tag, field);
        appendRecord(dir.path(), "v4|lc|" + tag, lcHead + field);
        appendRecord(dir.path(), "v4|mix|" + tag,
                     mixHead + field + mixTail);
        ResultCache cache(dir.path());
        auto ipc = cache.loadDouble("v4|batch|" + tag);
        auto lc = cache.loadLcBaseline("v4|lc|" + tag);
        auto mix = cache.loadMix("v4|mix|" + tag);
        EXPECT_EQ(ipc.has_value(), ok) << "'" << field << "'";
        EXPECT_EQ(lc.has_value(), ok) << "'" << field << "'";
        EXPECT_EQ(mix.has_value(), ok) << "'" << field << "'";
        EXPECT_EQ(cache.stats().corrupt, ok ? 0u : 3u) << "'" << field
                                                        << "'";
        if (ok) {
            EXPECT_EQ(lc->p95, 0x1fu);
            ASSERT_EQ(mix->batchSpeedups.size(), 1u);
            EXPECT_EQ(mix->ubikDeboosts, 0x1fu);
        }
    }
}

TEST(ResultCacheHardening, HugeSpeedupCountIsCorruptNotACrash)
{
    // A checksum-valid mix record whose speedup count is huge must
    // read as corrupt, never size a vector. The first three counts
    // plus 3 wrap around to the number of fields that follow them.
    TempCacheDir dir("hugecount");
    const std::string z = "0000000000000000";
    const std::pair<const char *, int> cases[] = {
        {"18446744073709551613", 0}, {"18446744073709551614", 1},
        {"18446744073709551615", 2}, {"99999999999999999999", 3},
        {"4", 3}};
    for (const auto &[count, trailing] : cases) {
        std::string payload = z + "," + z + "," + z + "," + z + "," + count;
        for (int i = 0; i < trailing; i++)
            payload += "," + z;
        appendRecord(dir.path(), std::string("v4|count|") + count, payload);
    }
    ResultCache cache(dir.path());
    for (const auto &[count, trailing] : cases)
        EXPECT_FALSE(
            cache.loadMix(std::string("v4|count|") + count).has_value())
            << count << " + " << trailing << " fields";
    EXPECT_EQ(cache.stats().corrupt, std::size(cases));
}

TEST(ResultCacheHardening, EveryPayloadKindRoundTripsBitExactly)
{
    TempCacheDir dir("roundtrip");
    const double odd[] = {-0.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          1.0 / 3.0};
    std::vector<MixRunResult> mixes;
    for (std::size_t n : {0u, 1u, 3u, 7u}) {
        MixRunResult r = sampleResult(static_cast<double>(n) + 0.5);
        r.batchSpeedups.assign(odd, odd + std::min<std::size_t>(n, 6));
        r.lcTailMean = odd[n % 6];
        r.ubikDeboosts = ~0ull - n;
        r.ubikDeadlineDeboosts = n << 40;
        r.ubikWatermarks = 0x0123456789abcdefull;
        mixes.push_back(r);
    }
    LcBaseline lc;
    lc.meanServiceCycles = 1.0 / 7.0;
    lc.meanInterarrival = -0.0;
    lc.meanLatency = std::numeric_limits<double>::min();
    lc.tailMean = 123456.789;
    lc.p95 = ~0ull;
    const double ipc = std::numeric_limits<double>::denorm_min();
    AdvisorVerdict advice;
    advice.canDownsize = true;
    advice.freedLines = ~0ull;
    advice.transientCycles = -0.0;
    {
        ResultCache cache(dir.path());
        for (std::size_t i = 0; i < mixes.size(); i++)
            cache.storeMix("v4|rt|mix" + std::to_string(i), mixes[i]);
        cache.storeLcBaseline("v4|rt|lc", lc);
        cache.storeDouble("v4|rt|batch", ipc);
        cache.storeAdvice("v4|rt|advice", advice);
    }
    ResultCache cache(dir.path());
    std::vector<MixRunResult> back;
    for (std::size_t i = 0; i < mixes.size(); i++) {
        auto r = cache.loadMix("v4|rt|mix" + std::to_string(i));
        ASSERT_TRUE(r.has_value());
        back.push_back(*r);
    }
    test::expectSameResults(back, mixes);
    auto lcBack = cache.loadLcBaseline("v4|rt|lc");
    ASSERT_TRUE(lcBack.has_value());
    expectBitIdentical(lcBack->meanServiceCycles, lc.meanServiceCycles,
                       "meanServiceCycles", 0);
    expectBitIdentical(lcBack->meanInterarrival, lc.meanInterarrival,
                       "meanInterarrival", 0);
    expectBitIdentical(lcBack->meanLatency, lc.meanLatency,
                       "meanLatency", 0);
    expectBitIdentical(lcBack->tailMean, lc.tailMean, "tailMean", 0);
    EXPECT_EQ(lcBack->p95, lc.p95);
    auto ipcBack = cache.loadDouble("v4|rt|batch");
    ASSERT_TRUE(ipcBack.has_value());
    expectBitIdentical(*ipcBack, ipc, "ipc", 0);
    auto adviceBack = cache.loadAdvice("v4|rt|advice");
    ASSERT_TRUE(adviceBack.has_value());
    EXPECT_EQ(adviceBack->canDownsize, advice.canDownsize);
    EXPECT_EQ(adviceBack->freedLines, advice.freedLines);
    expectBitIdentical(adviceBack->transientCycles,
                       advice.transientCycles, "transientCycles", 0);
    // One index holds every kind (their keys differ): a record read
    // as another kind's value does not decode, so it counts as
    // corrupt and serves nothing.
    EXPECT_FALSE(cache.loadDouble("v4|rt|lc").has_value());
    EXPECT_FALSE(cache.loadMix("v4|rt|batch").has_value());
    EXPECT_FALSE(cache.loadLcBaseline("v4|rt|mix0").has_value());
    EXPECT_FALSE(cache.loadAdvice("v4|rt|batch").has_value());
    EXPECT_FALSE(cache.loadDouble("v4|rt|advice").has_value());
    CacheStats st = cache.stats();
    EXPECT_EQ(st.corrupt, 5u);
    EXPECT_EQ(st.hits, mixes.size() + 3);
    EXPECT_EQ(st.misses, 5u);
}

} // namespace
} // namespace ubik
