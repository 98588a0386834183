/**
 * @file
 * Tests for the persistent result cache's canonical keys and
 * serialization: equal configurations produce equal keys however they
 * were constructed, any single field change produces a different key,
 * result-neutral knobs (worker count, sweep shape) never enter the
 * key, and MixRunResult / LcBaseline / batch-IPC values round-trip
 * bit-exactly through a fresh ResultCache instance.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/log.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "support/cache_test_util.h"

namespace ubik {
namespace {

using test::TempCacheDir;
using test::cacheTestCfg;
using test::cacheTestJobs;
using test::expectBitIdentical;

SchemeUnderTest
baseSut()
{
    SchemeUnderTest sut;
    sut.label = "Ubik";
    sut.scheme = SchemeKind::Vantage;
    sut.array = ArrayKind::Z4_52;
    sut.policy = PolicyKind::Ubik;
    sut.slack = 0.05;
    return sut;
}

MixSpec
baseMix()
{
    return cacheTestJobs().front().mix;
}

std::string
keyOf(const SchemeUnderTest &sut)
{
    return mixResultKey(cacheTestCfg(), baseMix(), sut, 1, true);
}

/** Every spelling of the kinds a scheme names: the candidate values
 *  for a string leaf of its JSON form. */
template <class... E>
std::vector<std::string>
kindSpellings()
{
    std::vector<std::string> out;
    (..., [&out] {
        for (const auto &s : EnumNames<E>::spellings)
            out.push_back(s.name);
    }());
    return out;
}

/** `j` with the leaf at `path` (member keys from the root) replaced. */
Json
withLeaf(const Json &j, const std::vector<std::string> &path,
         std::size_t depth, const Json &leaf)
{
    if (depth == path.size())
        return leaf;
    Json out = Json::object();
    for (const auto &m : j.members())
        out.set(m.first, m.first == path[depth]
                             ? withLeaf(m.second, path, depth + 1, leaf)
                             : m.second);
    return out;
}

/** Member-key paths of every leaf under `j`. */
void
leafPaths(const Json &j, std::vector<std::string> &path,
          std::vector<std::vector<std::string>> &out)
{
    if (!j.isObject()) {
        out.push_back(path);
        return;
    }
    for (const auto &m : j.members()) {
        path.push_back(m.first);
        leafPaths(m.second, path, out);
        path.pop_back();
    }
}

TEST(ResultCacheKey, EquallyConstructedSutsHashIdentically)
{
    // Aggregate init vs field-by-field assignment in another order.
    SchemeUnderTest a{"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
                      PolicyKind::Ubik, 0.05};
    SchemeUnderTest b;
    b.slack = 0.05;
    b.policy = PolicyKind::Ubik;
    b.array = ArrayKind::Z4_52;
    b.scheme = SchemeKind::Vantage;
    b.label = "Ubik";
    EXPECT_EQ(keyOf(a), keyOf(b));

    // A copied-then-rebuilt mix hashes like the original.
    MixSpec m1 = baseMix();
    MixSpec m2;
    m2.name = m1.name;
    m2.lc.load = m1.lc.load;
    m2.lc.app = lc_presets::specjbb();
    m2.batch = m1.batch;
    EXPECT_EQ(mixResultKey(cacheTestCfg(), m1, a, 1, true),
              mixResultKey(cacheTestCfg(), m2, a, 1, true));
}

TEST(ResultCacheKey, EverySchemeFieldChangesTheKey)
{
    const std::string base = keyOf(baseSut());
    std::vector<std::function<void(SchemeUnderTest &)>> mutators = {
        [](SchemeUnderTest &s) { s.label = "Ubik2"; },
        [](SchemeUnderTest &s) { s.scheme = SchemeKind::WayPart; },
        [](SchemeUnderTest &s) { s.array = ArrayKind::SA16; },
        [](SchemeUnderTest &s) { s.policy = PolicyKind::Lru; },
        [](SchemeUnderTest &s) { s.slack = 0.1; },
        [](SchemeUnderTest &s) { s.ubik.slack = 0.01; },
        [](SchemeUnderTest &s) { s.ubik.idleOptions = 8; },
        [](SchemeUnderTest &s) { s.ubik.deboostGuard = 32.0; },
        [](SchemeUnderTest &s) { s.ubik.slackGain = 0.2; },
        [](SchemeUnderTest &s) { s.ubik.dutyAlpha = 0.5; },
        [](SchemeUnderTest &s) { s.ubik.accurateDeboost = false; },
        [](SchemeUnderTest &s) { s.reconfigScale = 2.0; },
        [](SchemeUnderTest &s) { s.mem = MemKind::Contended; },
        [](SchemeUnderTest &s) { s.memParams.baseLatency = 300; },
        [](SchemeUnderTest &s) { s.memParams.channels = 4; },
        [](SchemeUnderTest &s) { s.memParams.channelOccupancy = 48; },
        [](SchemeUnderTest &s) { s.lcMemShare = 0.7; },
    };
    std::set<std::string> keys{base};
    for (std::size_t i = 0; i < mutators.size(); i++) {
        SchemeUnderTest s = baseSut();
        mutators[i](s);
        std::string key = keyOf(s);
        EXPECT_NE(key, base) << "mutator " << i << " did not change "
                             << "the key";
        EXPECT_TRUE(keys.insert(key).second)
            << "mutator " << i << " collided with another mutation";
    }

    // The same property for every leaf of the scheme's JSON form, so
    // a spec field added without a key field fails here instead of
    // serving a result computed for another setting. Each leaf takes
    // the first candidate value that parses to a different scheme.
    ScenarioSpec spec;
    spec.name = "keys";
    spec.schemes = {baseSut()};
    const Json specJson = scenarioToJson(spec);
    const Json &scheme = specJson.find("schemes")->at(0);
    std::vector<std::vector<std::string>> leaves;
    std::vector<std::string> path;
    leafPaths(scheme, path, leaves);
    EXPECT_GE(leaves.size(), mutators.size());
    const std::vector<std::string> names =
        kindSpellings<PolicyKind, SchemeKind, ArrayKind, MemKind>();
    FatalTrap trap;
    for (const auto &leafPath : leaves) {
        const Json *old = &scheme;
        std::string where;
        for (const auto &k : leafPath) {
            old = old->find(k);
            where += "." + k;
        }
        std::vector<Json> candidates;
        if (old->isBool())
            candidates.push_back(Json(!old->boolean()));
        if (old->isNumber())
            candidates = {Json(old->number() + 1),
                          Json(old->number() / 2)};
        if (old->isString()) {
            candidates.push_back(Json(old->str() + "2"));
            for (const auto &n : names)
                candidates.push_back(Json(n));
        }
        bool perturbed = false;
        for (const Json &c : candidates) {
            Json schemes = Json::array();
            schemes.push(withLeaf(scheme, leafPath, 0, c));
            Json s = Json::object();
            s.set("name", "keys");
            s.set("schemes", std::move(schemes));
            ScenarioSpec back;
            try {
                back = scenarioFromJson(s);
            } catch (const FatalError &) {
                continue; // not a valid value for this field
            }
            if (scenarioToJson(back).find("schemes")->at(0) == scheme)
                continue; // an alias of the current value
            perturbed = true;
            EXPECT_NE(keyOf(back.schemes.at(0)), base)
                << "scheme field " << where << " = " << c.dump()
                << " does not change the result-cache key";
            break;
        }
        EXPECT_TRUE(perturbed) << "no valid value to perturb " << where;
    }
}

TEST(ResultCacheKey, TraceBackingEntersTheKeyByContent)
{
    const SchemeUnderTest sut = baseSut();
    const std::string base =
        mixResultKey(cacheTestCfg(), baseMix(), sut, 1, true);

    auto makeTraceApp = [](Addr salt) {
        auto td = std::make_shared<TraceData>();
        td->requestWork = {1000.0, 2000.0};
        td->requestStart = {0, 2};
        td->accesses = {salt + 1, salt + 2, salt + 3};
        return TraceApp::fromData(std::move(td), "t");
    };

    // Backing the same mix with a trace changes the key...
    MixSpec traced = baseMix();
    traced.lc.traces.push_back(makeTraceApp(0));
    const std::string k1 =
        mixResultKey(cacheTestCfg(), traced, sut, 1, true);
    EXPECT_NE(k1, base);

    // ...the key depends on the records, not the TraceApp object...
    MixSpec traced2 = baseMix();
    traced2.lc.traces.push_back(makeTraceApp(0));
    EXPECT_EQ(mixResultKey(cacheTestCfg(), traced2, sut, 1, true), k1);

    // ...different records give a different key...
    MixSpec other = baseMix();
    other.lc.traces.push_back(makeTraceApp(100));
    EXPECT_NE(mixResultKey(cacheTestCfg(), other, sut, 1, true), k1);

    // ...and so does the shared-vs-per-instance assignment.
    MixSpec per = baseMix();
    for (int i = 0; i < 3; i++)
        per.lc.traces.push_back(makeTraceApp(0));
    EXPECT_NE(mixResultKey(cacheTestCfg(), per, sut, 1, true), k1);
}

TEST(ResultCacheKey, BatchTraceBackingEntersTheKeyByContent)
{
    const SchemeUnderTest sut = baseSut();
    const std::string base =
        mixResultKey(cacheTestCfg(), baseMix(), sut, 1, true);

    auto makeTraceApp = [](Addr salt) {
        auto td = std::make_shared<TraceData>();
        td->requestWork = {1000.0};
        td->requestStart = {0};
        td->accesses = {salt + 1, salt + 2, salt + 3};
        return TraceApp::fromData(std::move(td), "bt");
    };

    // Backing the batch side with a trace changes the key...
    MixSpec traced = baseMix();
    traced.batch.traces.push_back(makeTraceApp(0));
    const std::string k1 =
        mixResultKey(cacheTestCfg(), traced, sut, 1, true);
    EXPECT_NE(k1, base);

    // ...by record content, not object identity...
    MixSpec traced2 = baseMix();
    traced2.batch.traces.push_back(makeTraceApp(0));
    EXPECT_EQ(mixResultKey(cacheTestCfg(), traced2, sut, 1, true), k1);

    // ...different records differ...
    MixSpec other = baseMix();
    other.batch.traces.push_back(makeTraceApp(100));
    EXPECT_NE(mixResultKey(cacheTestCfg(), other, sut, 1, true), k1);

    // ...per-instance assignment differs from shared...
    MixSpec per = baseMix();
    for (int i = 0; i < 3; i++)
        per.batch.traces.push_back(makeTraceApp(0));
    EXPECT_NE(mixResultKey(cacheTestCfg(), per, sut, 1, true), k1);

    // ...and an LC-side trace is not mistaken for a batch-side one.
    MixSpec lcSide = baseMix();
    lcSide.lc.traces.push_back(makeTraceApp(0));
    EXPECT_NE(mixResultKey(cacheTestCfg(), lcSide, sut, 1, true), k1);
}

TEST(ResultCacheKey, MixExperimentSeedAndSchemaChangeTheKey)
{
    const ExperimentConfig cfg = cacheTestCfg();
    const MixSpec mix = baseMix();
    const SchemeUnderTest sut = baseSut();
    const std::string base = mixResultKey(cfg, mix, sut, 1, true);

    {
        ExperimentConfig c = cfg;
        c.scale = 8.0;
        EXPECT_NE(mixResultKey(c, mix, sut, 1, true), base);
        c = cfg;
        c.roiRequests = 31;
        EXPECT_NE(mixResultKey(c, mix, sut, 1, true), base);
        c = cfg;
        c.warmupRequests = 11;
        EXPECT_NE(mixResultKey(c, mix, sut, 1, true), base);
    }
    {
        MixSpec m = mix;
        m.name = "other";
        EXPECT_NE(mixResultKey(cfg, m, sut, 1, true), base);
        m = mix;
        m.lc.load = 0.6;
        EXPECT_NE(mixResultKey(cfg, m, sut, 1, true), base);
        m = mix;
        m.lc.app.apki += 1.0;
        EXPECT_NE(mixResultKey(cfg, m, sut, 1, true), base);
        m = mix;
        m.lc.app.hotLines += 64;
        EXPECT_NE(mixResultKey(cfg, m, sut, 1, true), base);
        m = mix;
        m.lc.app.work = ServiceDistribution::lognormal(1e6, 0.9);
        EXPECT_NE(mixResultKey(cfg, m, sut, 1, true), base);
        m = mix;
        m.batch.apps[1].theta += 0.05;
        EXPECT_NE(mixResultKey(cfg, m, sut, 1, true), base);
        m = mix;
        m.batch.apps[2].cls = BatchClass::Fitting;
        EXPECT_NE(mixResultKey(cfg, m, sut, 1, true), base);
    }
    EXPECT_NE(mixResultKey(cfg, mix, sut, 2, true), base);   // seed
    EXPECT_NE(mixResultKey(cfg, mix, sut, 1, false), base);  // in-order
    EXPECT_NE(mixResultKey(cfg, mix, sut, 1, true,           // schema
                           kResultCacheSchemaVersion + 1),
              base);
}

TEST(ResultCacheKey, ResultNeutralKnobsDoNotChangeTheKey)
{
    const MixSpec mix = baseMix();
    const SchemeUnderTest sut = baseSut();
    ExperimentConfig a = cacheTestCfg();
    ExperimentConfig b = a;
    // Worker count, sweep shape, and I/O knobs select *which* jobs
    // run or where output goes — never what one job computes. Warm
    // hits must keep working when UBIK_JOBS changes.
    b.jobs = 8;
    b.seeds = 7;
    b.mixesPerLc = 40;
    b.verbose = true;
    b.cacheDir = "/somewhere/else";
    EXPECT_EQ(mixResultKey(a, mix, sut, 1, true),
              mixResultKey(b, mix, sut, 1, true));
    EXPECT_EQ(lcBaselineKey(a, mix.lc.app, 0.2, 1, true),
              lcBaselineKey(b, mix.lc.app, 0.2, 1, true));
    EXPECT_EQ(batchBaselineKey(a, mix.batch.apps[0], 1, true),
              batchBaselineKey(b, mix.batch.apps[0], 1, true));
}

TEST(ResultCacheKey, KindsAreDisjoint)
{
    // A mix key, an LC-baseline key, and a batch key can never
    // collide, whatever their parameters.
    ExperimentConfig cfg = cacheTestCfg();
    MixSpec mix = baseMix();
    std::string m = mixResultKey(cfg, mix, baseSut(), 1, true);
    std::string l = lcBaselineKey(cfg, mix.lc.app, 0.2, 1, true);
    std::string b = batchBaselineKey(cfg, mix.batch.apps[0], 1, true);
    EXPECT_NE(m, l);
    EXPECT_NE(m, b);
    EXPECT_NE(l, b);
}

TEST(ResultCacheRoundTrip, MixRunResultBitExactIncludingVectors)
{
    TempCacheDir dir("roundtrip_mix");
    MixRunResult r;
    r.lcTailMean = 0.1 + 0.2; // 0.30000000000000004
    r.tailDegradation = -0.0;
    r.meanDegradation = std::numeric_limits<double>::denorm_min();
    r.weightedSpeedup = 1.0 / 3.0;
    r.batchSpeedups = {std::nan(""), 1e-300,
                       std::numeric_limits<double>::infinity(),
                       0.9120000000000001};
    r.ubikDeboosts = 0xdeadbeefcafef00dull;
    r.ubikDeadlineDeboosts = 42;
    r.ubikWatermarks = std::numeric_limits<std::uint64_t>::max();

    const std::string key = "v1|test|mix-roundtrip";
    {
        ResultCache cache(dir.path());
        cache.storeMix(key, r);
    }
    // A fresh instance forces the shard file to be parsed.
    ResultCache cache(dir.path());
    auto loaded = cache.loadMix(key);
    ASSERT_TRUE(loaded.has_value());
    expectBitIdentical(loaded->lcTailMean, r.lcTailMean, "lcTailMean",
                       0);
    expectBitIdentical(loaded->tailDegradation, r.tailDegradation,
                       "tailDegradation", 0);
    expectBitIdentical(loaded->meanDegradation, r.meanDegradation,
                       "meanDegradation", 0);
    expectBitIdentical(loaded->weightedSpeedup, r.weightedSpeedup,
                       "weightedSpeedup", 0);
    ASSERT_EQ(loaded->batchSpeedups.size(), r.batchSpeedups.size());
    for (std::size_t i = 0; i < r.batchSpeedups.size(); i++)
        expectBitIdentical(loaded->batchSpeedups[i], r.batchSpeedups[i],
                           "batchSpeedup", i);
    EXPECT_EQ(loaded->ubikDeboosts, r.ubikDeboosts);
    EXPECT_EQ(loaded->ubikDeadlineDeboosts, r.ubikDeadlineDeboosts);
    EXPECT_EQ(loaded->ubikWatermarks, r.ubikWatermarks);
}

TEST(ResultCacheRoundTrip, LcBaselineAndBatchIpcBitExact)
{
    TempCacheDir dir("roundtrip_base");
    LcBaseline b;
    b.meanServiceCycles = 123456.789;
    b.meanInterarrival = 1.0 / 7.0;
    b.meanLatency = 0.1 + 0.7;
    b.tailMean = -0.0;
    b.p95 = 0xffffffffffffffffull;
    {
        ResultCache cache(dir.path());
        cache.storeLcBaseline("v1|test|lc", b);
        cache.storeBatchIpc("v1|test|batch", 2.0 / 3.0);
    }
    ResultCache cache(dir.path());
    auto lb = cache.loadLcBaseline("v1|test|lc");
    ASSERT_TRUE(lb.has_value());
    expectBitIdentical(lb->meanServiceCycles, b.meanServiceCycles,
                       "meanServiceCycles", 0);
    expectBitIdentical(lb->meanInterarrival, b.meanInterarrival,
                       "meanInterarrival", 0);
    expectBitIdentical(lb->meanLatency, b.meanLatency, "meanLatency",
                       0);
    expectBitIdentical(lb->tailMean, b.tailMean, "tailMean", 0);
    EXPECT_EQ(lb->p95, b.p95);

    auto ipc = cache.loadBatchIpc("v1|test|batch");
    ASSERT_TRUE(ipc.has_value());
    expectBitIdentical(*ipc, 2.0 / 3.0, "batchIpc", 0);
}

TEST(ResultCache, StatsCountHitsMissesAndStores)
{
    TempCacheDir dir("stats");
    ResultCache cache(dir.path());
    MixRunResult r;
    r.batchSpeedups = {1.0, 2.0, 3.0};

    EXPECT_FALSE(cache.loadMix("v1|k1").has_value());
    cache.storeMix("v1|k1", r);
    EXPECT_TRUE(cache.loadMix("v1|k1").has_value());
    EXPECT_FALSE(cache.loadLcBaseline("v1|k2").has_value());

    CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.mixHits, 1u);
    EXPECT_EQ(st.mixMisses, 1u);
    EXPECT_EQ(st.evicted, 0u);
    EXPECT_EQ(st.corrupt, 0u);
}

TEST(ResultCache, OpenOnEmptyDirDisablesCaching)
{
    EXPECT_EQ(ResultCache::open(""), nullptr);
    TempCacheDir dir("open");
    auto cache = ResultCache::open(dir.path());
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->dir(), dir.path());
}

} // namespace
} // namespace ubik
