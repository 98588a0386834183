/**
 * @file
 * Hardening tests for the persistent result cache: truncated or
 * garbage shard files must read as misses (never poisoned results or
 * crashes) and be rewritten by the next store; stale-schema records
 * must be evicted; and concurrent writers into the same shard must
 * serialize into a parseable file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "sim/result_cache.h"
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

/** The single shard file under `dir` (fails the test if != 1). */
std::string
onlyShardFile(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().string());
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? std::string() : files.front();
}

TEST(ResultCacheHardening, TruncatedShardIsAMissAndGetsRewritten)
{
    TempCacheDir dir("truncate");
    const std::string key = "v1|hardening|truncate";
    const MixRunResult r = sampleResult(3.5);
    {
        ResultCache cache(dir.path());
        cache.storeMix(key, r);
    }

    // Chop the record's tail off, as a crashed or racing writer would.
    std::string shard = onlyShardFile(dir.path());
    ASSERT_FALSE(shard.empty());
    auto size = std::filesystem::file_size(shard);
    std::filesystem::resize_file(shard, size / 2);

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
    std::string shard = onlyShardFile(dir.path());
    ASSERT_FALSE(shard.empty());
    {
        // Garbage before and after: random bytes, a wrong-checksum
        // record, and a half-record with no newline.
        std::ofstream out(shard, std::ios::app | std::ios::binary);
        out << "not a record at all\n";
        out << "U1 1 m v1%7Cfake 0123456789abcdef,2,"
               "0000000000000000,0000000000000000,0000000000000000,"
               "0000000000000000,0000000000000000,0000000000000000 "
               "ffffffffffffffff\n";
        out << "U1 1 m v1%7Ctorn 00112233";
    }
    ResultCache cache(dir.path());
    auto loaded = cache.loadMix(key);
    ASSERT_TRUE(loaded.has_value()); // the good record survives
    expectBitIdentical(loaded->tailDegradation,
                       sampleResult(1.25).tailDegradation,
                       "tailDegradation", 0);
    EXPECT_GE(cache.stats().corrupt, 3u);
    EXPECT_FALSE(cache.loadMix("v1|fake").has_value());
}

TEST(ResultCacheHardening, SchemaV1RecordsFromPriorReleasesAreEvicted)
{
    // PR 2 shipped schema v1; this tree is v2 (trace-backed mixes
    // changed replay semantics and added trace hashes to keys). A
    // cache dir populated by the old binary must be evicted wholesale
    // — stale counts, nothing served, nothing read as corrupt.
    ASSERT_GE(kResultCacheSchemaVersion, 2u);
    TempCacheDir dir("schema_v1");
    const std::string key = "v1|hardening|oldschema";
    {
        ResultCache cache(dir.path());
        cache.storeMix(key, sampleResult(4.25));
    }
    std::string shard = onlyShardFile(dir.path());
    ASSERT_FALSE(shard.empty());
    std::string content;
    {
        std::ifstream in(shard, std::ios::binary);
        content.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }
    const std::string cur =
        "U1 " + std::to_string(kResultCacheSchemaVersion) + " ";
    auto pos = content.find(cur);
    ASSERT_NE(pos, std::string::npos);
    content.replace(pos, cur.size(), "U1 1 ");
    {
        std::ofstream out(shard, std::ios::trunc | std::ios::binary);
        out << content;
    }

    ResultCache cache(dir.path());
    EXPECT_FALSE(cache.loadMix(key).has_value());
    CacheStats st = cache.stats();
    EXPECT_EQ(st.evicted, 1u);
    EXPECT_EQ(st.corrupt, 0u);

    // A store under the current schema repairs the entry.
    cache.storeMix(key, sampleResult(4.25));
    EXPECT_TRUE(cache.loadMix(key).has_value());
}

TEST(ResultCacheHardening, StaleSchemaRecordsAreEvictedNotServed)
{
    TempCacheDir dir("schema");
    const std::string key = "v1|hardening|schema";
    {
        ResultCache cache(dir.path());
        cache.storeMix(key, sampleResult(2.0));
    }
    // Rewrite the record's schema field to a version that never
    // existed; the checksum intentionally covers only kind/key/payload
    // so this reads as stale, not corrupt.
    std::string shard = onlyShardFile(dir.path());
    ASSERT_FALSE(shard.empty());
    std::string content;
    {
        std::ifstream in(shard, std::ios::binary);
        content.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }
    const std::string cur =
        "U1 " + std::to_string(kResultCacheSchemaVersion) + " ";
    auto pos = content.find(cur);
    ASSERT_NE(pos, std::string::npos);
    content.replace(pos, cur.size(), "U1 999 ");
    {
        std::ofstream out(shard, std::ios::trunc | std::ios::binary);
        out << content;
    }

    ResultCache cache(dir.path());
    EXPECT_FALSE(cache.loadMix(key).has_value());
    CacheStats st = cache.stats();
    EXPECT_EQ(st.evicted, 1u);
    EXPECT_EQ(st.corrupt, 0u);
}

TEST(ResultCacheHardening, ConcurrentStoresIntoOneShardSerialize)
{
    // Collect keys that all land in the same shard, then hammer that
    // shard from four threads; every record must survive, parseable
    // and bit-exact, in a fresh instance.
    const std::size_t perThread = 10, threads = 4;
    std::vector<std::string> keys;
    std::size_t target = ResultCache::shardOf("v1|conc|0");
    for (std::size_t i = 0; keys.size() < perThread * threads; i++) {
        std::string k = "v1|conc|" + std::to_string(i);
        if (ResultCache::shardOf(k) == target)
            keys.push_back(k);
    }

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
    // store repairs the shard.
    const std::string keyA = "v1|hardening|torn|survivor";
    const MixRunResult ra = sampleResult(6.5);
    const MixRunResult rb = sampleResult(8.5);
    // The victim must share the survivor's shard so the cut tears the
    // same file the survivor lives in.
    std::string keyB;
    for (int i = 0; keyB.empty(); i++) {
        std::string k = "v1|hardening|torn|victim" + std::to_string(i);
        if (ResultCache::shardOf(k) == ResultCache::shardOf(keyA))
            keyB = k;
    }

    // Learn the victim record's on-disk length from a clean store.
    std::uintmax_t lineLen;
    {
        TempCacheDir scratch("torn_len");
        ResultCache cache(scratch.path());
        cache.storeMix(keyB, rb);
        lineLen = std::filesystem::file_size(
            onlyShardFile(scratch.path()));
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
            // The re-store repairs the shard (newline-glue + fresh
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

/** Append one hand-made record with a valid checksum to the shard
 *  `key` lands in: `U1 <schema> <kind> <key> <payload> <crc>`. The
 *  payload's spaces are escaped as the writer escapes them. */
void
appendRecord(const std::string &dir, char kind, const std::string &key,
             const std::string &payload)
{
    std::uint64_t crc = 0xcbf29ce484222325ull;
    auto fold = [&crc](const std::string &s) {
        for (unsigned char c : s) {
            crc ^= c;
            crc *= 0x100000001b3ull;
        }
    };
    fold(std::string(1, kind) + '\x1f' + key + '\x1f' + payload);
    std::string escaped;
    for (char c : payload)
        escaped += c == ' ' ? std::string("%20") : std::string(1, c);
    char name[32], crcText[17];
    std::snprintf(name, sizeof name, "/shard_%02zx.ubikcache",
                  ResultCache::shardOf(key));
    std::snprintf(crcText, sizeof crcText, "%016llx",
                  static_cast<unsigned long long>(crc));
    std::filesystem::create_directories(dir);
    std::ofstream out(dir + name, std::ios::app | std::ios::binary);
    out << "U1 " << kResultCacheSchemaVersion << ' ' << kind << ' '
        << key << ' ' << escaped << ' ' << crcText << '\n';
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
        appendRecord(dir.path(), 'b', "v4|batch|" + tag, field);
        appendRecord(dir.path(), 'l', "v4|lc|" + tag, lcHead + field);
        appendRecord(dir.path(), 'm', "v4|mix|" + tag,
                     mixHead + field + mixTail);
        ResultCache cache(dir.path());
        auto ipc = cache.loadBatchIpc("v4|batch|" + tag);
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
        appendRecord(dir.path(), 'm', std::string("v4|count|") + count,
                     payload);
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
    {
        ResultCache cache(dir.path());
        for (std::size_t i = 0; i < mixes.size(); i++)
            cache.storeMix("v4|rt|mix" + std::to_string(i), mixes[i]);
        cache.storeLcBaseline("v4|rt|lc", lc);
        cache.storeBatchIpc("v4|rt|batch", ipc);
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
    auto ipcBack = cache.loadBatchIpc("v4|rt|batch");
    ASSERT_TRUE(ipcBack.has_value());
    expectBitIdentical(*ipcBack, ipc, "ipc", 0);
    // Kinds index separately: one key under another kind misses.
    EXPECT_FALSE(cache.loadBatchIpc("v4|rt|lc").has_value());
    EXPECT_FALSE(cache.loadMix("v4|rt|batch").has_value());
    CacheStats st = cache.stats();
    EXPECT_EQ(st.corrupt, 0u);
    EXPECT_EQ(st.hits, mixes.size() + 2);
    EXPECT_EQ(st.misses, 2u);
}

} // namespace
} // namespace ubik
