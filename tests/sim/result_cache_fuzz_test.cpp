/**
 * @file
 * Seeded mutation fuzz of the result-cache log parser: a log holding
 * all five record kinds (mix results, LC baselines, batch IPCs, queue
 * tails, advisor verdicts) is
 * mutated by flipping, inserting and deleting bytes, truncating, and
 * duplicating lines, and two logs are merged by concatenation after
 * the first was torn at every byte of its last record. Loading from
 * the damaged log must return, for every stored key, either nothing
 * or the stored value bit for bit — never a crash, a hang or a
 * different value — and the next store must make the key load again.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "sim/result_cache.h"
#include "support/cache_test_util.h"

namespace ubik {
namespace {

using test::TempCacheDir;

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameMix(const MixRunResult &a, const MixRunResult &b)
{
    if (a.batchSpeedups.size() != b.batchSpeedups.size())
        return false;
    for (std::size_t i = 0; i < a.batchSpeedups.size(); i++)
        if (!sameBits(a.batchSpeedups[i], b.batchSpeedups[i]))
            return false;
    return sameBits(a.lcTailMean, b.lcTailMean) &&
           sameBits(a.tailDegradation, b.tailDegradation) &&
           sameBits(a.meanDegradation, b.meanDegradation) &&
           sameBits(a.weightedSpeedup, b.weightedSpeedup) &&
           a.ubikDeboosts == b.ubikDeboosts &&
           a.ubikDeadlineDeboosts == b.ubikDeadlineDeboosts &&
           a.ubikWatermarks == b.ubikWatermarks;
}

bool
sameLc(const LcBaseline &a, const LcBaseline &b)
{
    return sameBits(a.meanServiceCycles, b.meanServiceCycles) &&
           sameBits(a.meanInterarrival, b.meanInterarrival) &&
           sameBits(a.meanLatency, b.meanLatency) &&
           sameBits(a.tailMean, b.tailMean) && a.p95 == b.p95;
}

bool
sameAdvice(const AdvisorVerdict &a, const AdvisorVerdict &b)
{
    return a.canDownsize == b.canDownsize &&
           a.freedLines == b.freedLines &&
           sameBits(a.transientCycles, b.transientCycles);
}

/** Records of every kind, under keys shaped like the real ones:
 *  no space, newline or '%', the fields joined by '|'. */
struct Corpus
{
    std::vector<std::pair<std::string, MixRunResult>> mixes;
    std::vector<std::pair<std::string, LcBaseline>> lcs;
    std::vector<std::pair<std::string, double>> batches;
    std::vector<std::pair<std::string, double>> tails;
    std::vector<std::pair<std::string, AdvisorVerdict>> advices;

    void storeAll(ResultCache &c) const
    {
        for (const auto &[k, v] : mixes)
            c.storeMix(k, v);
        for (const auto &[k, v] : lcs)
            c.storeLcBaseline(k, v);
        for (const auto &[k, v] : batches)
            c.storeDouble(k, v);
        for (const auto &[k, v] : tails)
            c.storeDouble(k, v);
        for (const auto &[k, v] : advices)
            c.storeAdvice(k, v);
    }

    std::size_t size() const
    {
        return mixes.size() + lcs.size() + batches.size() +
               tails.size() + advices.size();
    }
};

/** The key "v8|fuzz|<tag>=<n>", n counting up. */
std::string
fuzzKey(const char *tag, int &n)
{
    return std::string("v8|fuzz|") + tag + "=" + std::to_string(n++);
}

Corpus
makeCorpus()
{
    Corpus c;
    int n = 0;
    for (int i = 0; i < 4; i++) {
        MixRunResult r;
        r.lcTailMean = 1000.0 / (i + 3);
        r.tailDegradation = 1.0 + i / 7.0;
        r.meanDegradation = -0.0;
        r.weightedSpeedup = 0.1 + 0.2 * i;
        r.batchSpeedups.assign(static_cast<std::size_t>(i), 1.0 / 3.0);
        r.ubikDeboosts = 0xdeadbeefull * static_cast<std::uint64_t>(i);
        r.ubikWatermarks = ~0ull;
        c.mixes.emplace_back(fuzzKey("mix", n), r);

        LcBaseline b;
        b.meanServiceCycles = 12345.678 * (i + 1);
        b.meanInterarrival = 1.0 / 7.0;
        b.meanLatency = 0.1 + 0.7;
        b.tailMean = 1e300 / (i + 1);
        b.p95 = 1000u + static_cast<Cycles>(i);
        c.lcs.emplace_back(fuzzKey("lc", n), b);

        c.batches.emplace_back(fuzzKey("batch", n), 2.0 / (i + 3));

        c.tails.emplace_back(fuzzKey("qtail", n), 3.5e5 * (i + 1) + 1.0 / 3.0);

        AdvisorVerdict v;
        v.canDownsize = i % 2 == 0;
        v.freedLines = 1024ull << i;
        v.transientCycles = 1e6 / (i + 1);
        c.advices.emplace_back(fuzzKey("advice", n), v);
    }
    return c;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Apply one random mutation to `s`. */
void
mutate(std::string &s, std::mt19937_64 &rng)
{
    auto pick = [&](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    switch (rng() % 5) {
      case 0: // flip one bit
        if (!s.empty())
            s[pick(s.size())] ^= static_cast<char>(1u << (rng() % 8));
        break;
      case 1: { // insert 1..4 bytes, biased to the record alphabet
        static const char kAlphabet[] = " \n%|=0123456789abcdefU,";
        std::size_t at = pick(s.size() + 1);
        for (std::size_t k = 1 + pick(4); k > 0; k--)
            s.insert(at, 1,
                     rng() % 2 ? kAlphabet[pick(sizeof kAlphabet - 1)]
                               : static_cast<char>(rng()));
        break;
      }
      case 2: // delete 1..8 bytes
        if (!s.empty()) {
            std::size_t at = pick(s.size());
            s.erase(at, 1 + pick(8));
        }
        break;
      case 3: // truncate
        s.resize(pick(s.size() + 1));
        break;
      case 4: { // duplicate one line elsewhere
        std::vector<std::size_t> starts{0};
        for (std::size_t i = 0; i < s.size(); i++)
            if (s[i] == '\n' && i + 1 < s.size())
                starts.push_back(i + 1);
        std::size_t from = starts[pick(starts.size())];
        std::size_t end = s.find('\n', from);
        std::string line = s.substr(
            from, end == std::string::npos ? std::string::npos
                                           : end + 1 - from);
        s.insert(starts[pick(starts.size())], line);
        break;
      }
    }
}

/** Every stored key loads as nothing or its stored value; returns
 *  how many loaded. */
std::size_t
checkLoads(ResultCache &cache, const Corpus &c)
{
    std::size_t found = 0;
    for (const auto &[k, v] : c.mixes)
        if (auto got = cache.loadMix(k)) {
            found++;
            EXPECT_TRUE(sameMix(*got, v)) << "mix " << k;
        }
    for (const auto &[k, v] : c.lcs)
        if (auto got = cache.loadLcBaseline(k)) {
            found++;
            EXPECT_TRUE(sameLc(*got, v)) << "lc " << k;
        }
    for (const auto &[k, v] : c.batches)
        if (auto got = cache.loadDouble(k)) {
            found++;
            EXPECT_TRUE(sameBits(*got, v)) << "batch " << k;
        }
    for (const auto &[k, v] : c.tails)
        if (auto got = cache.loadDouble(k)) {
            found++;
            EXPECT_TRUE(sameBits(*got, v)) << "qtail " << k;
        }
    for (const auto &[k, v] : c.advices)
        if (auto got = cache.loadAdvice(k)) {
            found++;
            EXPECT_TRUE(sameAdvice(*got, v)) << "advice " << k;
        }
    return found;
}

/** The one file under `dir`, the log (fails the test if != 1). */
std::string
onlyFile(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().string());
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? std::string() : files.front();
}

/** The log bytes of a fresh cache holding `c`'s records. */
std::string
logOf(const Corpus &c)
{
    TempCacheDir dir("fuzz_log");
    {
        ResultCache cache(dir.path());
        c.storeAll(cache);
    }
    return readFile(onlyFile(dir.path()));
}

TEST(ResultCacheFuzz, MutatedLogsLoadNothingOrTheStoredValue)
{
    TempCacheDir dir("fuzz");
    const Corpus corpus = makeCorpus();
    const std::size_t records = corpus.size();
    {
        ResultCache cache(dir.path());
        corpus.storeAll(cache);
    }
    const std::string log = onlyFile(dir.path());
    ASSERT_FALSE(log.empty());
    const std::string pristine = readFile(log);
    {
        ResultCache cache(dir.path());
        ASSERT_EQ(checkLoads(cache, corpus), records);
    }

    std::mt19937_64 rng(0x5eed0fca11ull);
    std::size_t partial = 0;
    for (int iter = 0; iter < 5000; iter++) {
        std::string bytes = pristine;
        for (std::size_t m = 1 + rng() % 3; m > 0; m--)
            mutate(bytes, rng);
        writeFile(log, bytes);
        SCOPED_TRACE("iteration " + std::to_string(iter));

        ResultCache cache(dir.path());
        std::size_t found = checkLoads(cache, corpus);
        partial += found < records;
        if (iter % 10 != 0)
            continue;
        // The next store repairs: a fresh instance then loads all.
        corpus.storeAll(cache);
        ResultCache reread(dir.path());
        EXPECT_EQ(checkLoads(reread, corpus), records);
    }
    // The mutations reach the records, not just the slack around them.
    EXPECT_GT(partial, 2500u);

    // Merged logs (`cat a b > c`, as --shard caches merge): the first
    // log ends in a record torn at every byte, so the second log's
    // first record is glued onto the stump. Both read as misses, every
    // other key loads its stored value, and the next store repairs.
    Corpus first, second;
    first.mixes = corpus.mixes;
    first.lcs = corpus.lcs;
    second.batches = corpus.batches;
    second.tails = corpus.tails;
    second.advices = corpus.advices;
    const std::string a = logOf(first), b = logOf(second);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    const std::size_t lastLine = a.size() - 1 - a.rfind('\n', a.size() - 2);
    for (std::size_t cut = 1; cut < lastLine; cut++) {
        SCOPED_TRACE("first log torn " + std::to_string(cut) +
                     " bytes before its end");
        writeFile(log, a.substr(0, a.size() - cut) + b);
        ResultCache cache(dir.path());
        EXPECT_EQ(checkLoads(cache, corpus), records - 2);
        EXPECT_EQ(cache.stats().corrupt, 1u);
        corpus.storeAll(cache);
        ResultCache reread(dir.path());
        EXPECT_EQ(checkLoads(reread, corpus), records);
        EXPECT_EQ(reread.stats().corrupt, 1u);
    }
}

} // namespace
} // namespace ubik
