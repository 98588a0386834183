/**
 * @file
 * Tests for the persistent result cache's canonical keys and
 * serialization: equal configurations produce equal keys however they
 * were constructed, any single field change produces a different key,
 * result-neutral knobs (worker count, sweep shape, names) never enter
 * the key, MixRunResult / LcBaseline / batch-IPC values round-trip
 * bit-exactly through a fresh ResultCache instance, a stored record
 * is the line `<key> <payload> <crc>`, no key of a registered
 * scenario holds a byte that would break that line or a key field,
 * the sweep keys joined from per-mix and per-scheme parts equal the
 * whole keys, and a cache opened without a directory keeps its
 * records in memory.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/log.h"
#include "queueing/queue_sim.h"
#include "sim/parallel_sweep.h"
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
        [](SchemeUnderTest &s) { s.scheme = SchemeKind::WayPart; },
        [](SchemeUnderTest &s) { s.array = ArrayKind::SA16; },
        [](SchemeUnderTest &s) { s.policy = PolicyKind::Lru; },
        [](SchemeUnderTest &s) { s.slack = 0.1; },
        [](SchemeUnderTest &s) { s.ubik.idleOptions = 8; },
        [](SchemeUnderTest &s) { s.ubik.deboostGuard = 32.0; },
        [](SchemeUnderTest &s) { s.ubik.accurateDeboost = false; },
        [](SchemeUnderTest &s) { s.reconfigScale = 2.0; },
        [](SchemeUnderTest &s) { s.mem = MemKind::Contended; },
        [](SchemeUnderTest &s) { s.memParams.channels = 4; },
        [](SchemeUnderTest &s) { s.memParams.channelOccupancy = 48; },
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

    // The same property for every leaf of the scheme's JSON form but
    // the label, which no simulation reads, so a spec field added
    // without a key field fails here instead of serving a result
    // computed for another setting. Each leaf takes the first
    // candidate value that parses to a different scheme.
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
        if (leafPath == std::vector<std::string>{"label"})
            continue;
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

/** Whether every key `mutants` builds differs from `base` and from
 *  every other mutant's. */
void
expectDistinctKeys(const std::string &base,
                   const std::vector<std::function<std::string()>> &mutants)
{
    std::set<std::string> keys{base};
    for (std::size_t i = 0; i < mutants.size(); i++) {
        const std::string key = mutants[i]();
        EXPECT_NE(key, base) << "mutant " << i << " did not change "
                             << "the key";
        EXPECT_TRUE(keys.insert(key).second)
            << "mutant " << i << " collided with another mutation";
    }
}

TEST(ResultCacheKey, EveryQueueTailInputChangesTheKey)
{
    // Every QueueSimParams field, the seed and the tail percentile.
    QueueSimParams base;
    const std::uint64_t seed = 7;
    const double pct = 95;
    auto with = [&](const std::function<void(QueueSimParams &)> &edit) {
        return [=] {
            QueueSimParams q = base;
            edit(q);
            return queueTailKey(q, seed, pct);
        };
    };
    expectDistinctKeys(
        queueTailKey(base, seed, pct),
        {
            with([](QueueSimParams &q) { q.workers = 2; }),
            with([](QueueSimParams &q) { q.meanInterarrival = 2e6; }),
            with([](QueueSimParams &q) {
                q.service = ServiceDistribution::lognormal(2e5, 0.5);
            }),
            with([](QueueSimParams &q) { q.service.scale(2.0); }),
            with([](QueueSimParams &q) { q.requests = 6000; }),
            with([](QueueSimParams &q) { q.warmup = 600; }),
            with([](QueueSimParams &q) { q.interferenceFactor = 0.05; }),
            with([](QueueSimParams &q) { q.abortProb = 0.01; }),
            with([](QueueSimParams &q) { q.maxAborts = 4; }),
            [&] { return queueTailKey(base, seed + 1, pct); },
            [&] { return queueTailKey(base, seed, 99); },
            [&] {
                return queueTailKey(base, seed, pct,
                                    kResultCacheSchemaVersion + 1);
            },
        });
}

TEST(ResultCacheKey, EveryAdvisorInputChangesTheKey)
{
    // The anchor baseline's inputs: the experiment fields, every LC
    // app field, the load and the core flavour.
    const ExperimentConfig cfg = cacheTestCfg();
    const LcAppParams app = baseMix().lc.app;
    const double load = 0.2;
    auto withCfg = [&](const std::function<void(ExperimentConfig &)> &edit) {
        return [=] {
            ExperimentConfig c = cfg;
            edit(c);
            return advisorKey(c, app, load, true);
        };
    };
    auto withApp = [&](const std::function<void(LcAppParams &)> &edit) {
        return [=] {
            LcAppParams a = app;
            edit(a);
            return advisorKey(cfg, a, load, true);
        };
    };
    expectDistinctKeys(
        advisorKey(cfg, app, load, true),
        {
            withCfg([](ExperimentConfig &c) { c.scale *= 2; }),
            withCfg([](ExperimentConfig &c) { c.roiRequests += 1; }),
            withCfg([](ExperimentConfig &c) { c.warmupRequests += 1; }),
            withApp([](LcAppParams &a) { a.apki *= 2; }),
            withApp([](LcAppParams &a) { a.work.scale(2.0); }),
            withApp([](LcAppParams &a) { a.hotLines += 1; }),
            withApp([](LcAppParams &a) { a.hotTheta += 0.1; }),
            withApp([](LcAppParams &a) { a.hotFrac /= 2; }),
            withApp([](LcAppParams &a) { a.reqLines += 1; }),
            withApp([](LcAppParams &a) { a.mlp += 1; }),
            withApp([](LcAppParams &a) { a.baseIpc /= 2; }),
            withApp([](LcAppParams &a) { a.requests += 1; }),
            [&] { return advisorKey(cfg, app, 0.3, true); },
            [&] { return advisorKey(cfg, app, load, false); },
            [&] {
                return advisorKey(cfg, app, load, true,
                                  kResultCacheSchemaVersion + 1);
            },
        });
    // A name no simulation reads stays out.
    LcAppParams renamed = app;
    renamed.name += "2";
    EXPECT_EQ(advisorKey(cfg, renamed, load, true),
              advisorKey(cfg, app, load, true));
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
        return TraceApp::fromData(std::move(td));
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
        return TraceApp::fromData(std::move(td));
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
    b.cacheDir = "/somewhere/else";
    // Names label results; no simulation reads them, so a relabelled
    // scheme or a renamed mix, batch mix or app is served the same
    // results.
    SchemeUnderTest renamedSut = sut;
    renamedSut.label = "Ubik2";
    MixSpec renamed = mix;
    renamed.name = "other";
    renamed.batch.name = "other-batch";
    renamed.lc.app.name = "other-lc";
    for (BatchAppParams &app : renamed.batch.apps)
        app.name += "-other";
    EXPECT_EQ(mixResultKey(a, mix, sut, 1, true),
              mixResultKey(b, renamed, renamedSut, 1, true));
    EXPECT_EQ(lcBaselineKey(a, mix.lc.app, 0.2, 1, true),
              lcBaselineKey(b, renamed.lc.app, 0.2, 1, true));
    EXPECT_EQ(batchBaselineKey(a, mix.batch.apps[0], 1, true),
              batchBaselineKey(b, renamed.batch.apps[0], 1, true));
}

TEST(ResultCacheKey, KindsAreDisjoint)
{
    // A mix key, an LC-baseline key, a batch key, a queue-tail key and
    // an advisor key can never collide, whatever their parameters:
    // each names its kind. An advisor key holds its anchor baseline's
    // inputs, and still differs from that baseline's key.
    ExperimentConfig cfg = cacheTestCfg();
    MixSpec mix = baseMix();
    QueueSimParams qp;
    qp.service = mix.lc.app.work;
    const std::vector<std::pair<std::string, std::string>> keys = {
        {"mix", mixResultKey(cfg, mix, baseSut(), 1, true)},
        {"lcbase", lcBaselineKey(cfg, mix.lc.app, 0.2,
                                 kAdvisorBaselineSeed, true)},
        {"batchbase", batchBaselineKey(cfg, mix.batch.apps[0], 1, true)},
        {"qtail", queueTailKey(qp, 1, 95)},
        {"advice", advisorKey(cfg, mix.lc.app, 0.2, true)},
    };
    std::set<std::string> distinct;
    for (const auto &[kind, key] : keys) {
        EXPECT_EQ(key.rfind("v" + std::to_string(
                                      kResultCacheSchemaVersion) +
                                "|" + kind + "|",
                            0),
                  0u)
            << key;
        distinct.insert(key);
    }
    EXPECT_EQ(distinct.size(), 5u);
}

/** Whether `key` is `v<schema>|<kind>|name=value|...`, with no space
 *  or newline and exactly one '=' in each field after the kind. */
bool
wellFormedKey(const std::string &key)
{
    if (key.find_first_of(" \n") != std::string::npos)
        return false;
    std::vector<std::string> fields{""};
    for (char c : key) {
        if (c == '|')
            fields.emplace_back();
        else
            fields.back() += c;
    }
    if (fields.size() < 3 ||
        fields[0] != "v" + std::to_string(kResultCacheSchemaVersion))
        return false;
    for (std::size_t i = 2; i < fields.size(); i++) {
        const std::size_t eq = fields[i].find('=');
        if (eq == 0 || eq == std::string::npos ||
            fields[i].find('=', eq + 1) != std::string::npos)
            return false;
    }
    return true;
}

TEST(ResultCacheKey, RegisteredScenarioKeysHoldNoSeparator)
{
    // Records are written unescaped, so no key may hold a space or a
    // newline, and no key value a '|' or '='. Every mix and baseline
    // key of every registered scenario, at a small scale.
    ExperimentConfig cfg = cacheTestCfg();
    cfg.seeds = 1;
    std::size_t checked = 0;
    for (const ScenarioSpec &spec : ScenarioRegistry::instance().all()) {
        SweepBaselines base;
        for (const SweepJob &job : buildSweepJobs(
                 spec.schemes, buildScenarioMixes(spec, cfg), cfg.seeds)) {
            const std::string key =
                mixResultKey(cfg, job.mix, job.sut, job.seed, spec.ooo);
            EXPECT_TRUE(wellFormedKey(key)) << spec.name << ": " << key;
            base.add(cfg, spec.ooo, job);
            checked++;
        }
        for (const auto &kv : base.lc)
            EXPECT_TRUE(wellFormedKey(kv.first))
                << spec.name << ": " << kv.first;
        for (const auto &kv : base.batch)
            EXPECT_TRUE(wellFormedKey(kv.first))
                << spec.name << ": " << kv.first;
        checked += base.lc.size() + base.batch.size();
        // The fleet stage's keys: an advisor verdict per LC preset
        // and queue tails over each preset's service distribution.
        for (const auto &kv : base.lc) {
            const SweepBaselines::Lc &lc = kv.second;
            QueueSimParams qp;
            qp.service = lc.params.work;
            for (const std::string &key :
                 {advisorKey(cfg, lc.params, lc.load, spec.ooo),
                  queueTailKey(qp, 1, 95)})
                EXPECT_TRUE(wellFormedKey(key)) << spec.name << ": "
                                                << key;
            checked += 2;
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(ResultCacheKey, SweepKeysFromPartsEqualWholeKeys)
{
    // buildSweepKeys builds each mix's and each scheme's key part once
    // and joins them per job: every registered scenario's keys must
    // equal mixResultKey's byte for byte, in buildSweepJobs' order.
    const ExperimentConfig cfg0 = cacheTestCfg(); // 2 seeds
    std::size_t checked = 0;
    for (const ScenarioSpec &spec : ScenarioRegistry::instance().all()) {
        const ExperimentConfig cfg = scenarioConfig(spec, cfg0);
        const std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
        const std::vector<SweepJob> jobs =
            buildSweepJobs(spec.schemes, mixes, cfg.seeds);
        const std::vector<std::string> keys =
            buildSweepKeys(cfg, spec.ooo, spec.schemes, mixes, cfg.seeds);
        ASSERT_EQ(keys.size(), jobs.size()) << spec.name;
        for (std::size_t i = 0; i < jobs.size(); i++)
            EXPECT_EQ(keys[i], mixResultKey(cfg, jobs[i].mix, jobs[i].sut,
                                            jobs[i].seed, spec.ooo))
                << spec.name << " job " << i;
        checked += jobs.size();
    }
    EXPECT_GT(checked, 100u);
}

TEST(ResultCacheKey, Fig9KeyIsPinned)
{
    // A key format change without a schema bump would serve old
    // records under new meanings (or orphan them): pin one fig9 job's
    // whole key, its first job (the first scheme on the first mix,
    // seed 1) at the unit-test scale.
    const ScenarioSpec &spec = *ScenarioRegistry::instance().find("fig9");
    const ExperimentConfig cfg = scenarioConfig(spec, cacheTestCfg());
    const std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
    const std::string key = buildSweepKeys(cfg, spec.ooo, spec.schemes,
                                           mixes, cfg.seeds)
                                .front();
    EXPECT_EQ(key, mixResultKey(cfg, mixes.front(), spec.schemes.front(),
                                1, spec.ooo));
    EXPECT_EQ(key,
              "v8|mix|scale=4030000000000000|roi=30|warmup=10|ooo=1"
              "|lc.apki=3fb999999999999a"
              "|lc.work=multi:414437c800000000:0000000000000000"
              ":0000000000000000"
              ":(3fe199999999999a,412e848000000000,3fe0000000000000)"
              ":(3fd3333333333333,4146e36000000000,3fd999999999999a)"
              ":(3fc3333333333333,415e848000000000,3fd3333333333333)"
              "|lc.hotLines=24576|lc.hotTheta=3feccccccccccccd"
              "|lc.hotFrac=3feb333333333333|lc.reqLines=2048"
              "|lc.mlp=4000000000000000|lc.baseIpc=3ff8000000000000"
              "|lc.requests=6000|lc.load=3fc999999999999a|lc.profile=constant"
              "|lc.ntraces=0|b0.cls=n|b0.apki=4010000000000000"
              "|b0.wsLines=5324|b0.theta=3ff3333333333333"
              "|b0.mlp=4000000000000000|b0.baseIpc=3ff8000000000000|b1.cls=n"
              "|b1.apki=4010000000000000|b1.wsLines=2867"
              "|b1.theta=3ff3333333333333|b1.mlp=4000000000000000"
              "|b1.baseIpc=3ff8000000000000|b2.cls=t|b2.apki=402e000000000000"
              "|b2.wsLines=49152|b2.theta=0000000000000000"
              "|b2.mlp=4008000000000000|b2.baseIpc=3ff8000000000000"
              "|batch.ntraces=0|sut.scheme=LRU|sut.array=Z4/52|sut.policy=LRU"
              "|sut.slack=0000000000000000|ubik.idleOptions=16"
              "|ubik.deboostGuard=4030000000000000|ubik.accurateDeboost=1"
              "|sut.reconfigScale=3ff0000000000000|sut.mem=fixed"
              "|mem.channels=3|mem.channelOccupancy=24|seed=1");
}

TEST(KeyBuilderDeath, StringValueHoldingASeparatorAsserts)
{
    EXPECT_DEATH(KeyBuilder("mix", 1).add("name", "a|b"),
                 "assertion failed");
    EXPECT_DEATH(KeyBuilder("mix", 1).add("name", "a=b"),
                 "assertion failed");
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
    // A fresh instance forces the log to be parsed.
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
        cache.storeDouble("v1|test|batch", 2.0 / 3.0);
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

    auto ipc = cache.loadDouble("v1|test|batch");
    ASSERT_TRUE(ipc.has_value());
    expectBitIdentical(*ipc, 2.0 / 3.0, "batchIpc", 0);
}

TEST(ResultCache, RecordIsKeyPayloadChecksum)
{
    // One line: the key, the payload (comma-joined hex fields), and
    // the FNV-1a digest of the text before it.
    TempCacheDir dir("record");
    LcBaseline b;
    b.meanServiceCycles = 1.0;
    b.meanInterarrival = 0.0;
    b.meanLatency = -1.0;
    b.tailMean = -0.0;
    b.p95 = 42;
    {
        ResultCache cache(dir.path());
        cache.storeLcBaseline("v8|rec|lc", b);
    }
    const std::string log = dir.path() + "/results.v" +
                            std::to_string(kResultCacheSchemaVersion) +
                            ".ubikcache";
    std::ifstream in(log, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, "v8|rec|lc 3ff0000000000000,0000000000000000,"
                     "bff0000000000000,8000000000000000,000000000000002a "
                     "02697dd9e4fb6286\n");
}

TEST(ResultCacheDeath, KeyHoldingASpaceOrNewlineAsserts)
{
    TempCacheDir dir("record_death");
    ResultCache cache(dir.path());
    EXPECT_DEATH(cache.storeDouble("v8|a b", 1.0), "assertion failed");
    EXPECT_DEATH(cache.storeDouble("v8|a\nb", 1.0), "assertion failed");
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

/** Store and load one record of each kind through `cache`. */
void
expectServesEveryKind(ResultCache &cache)
{
    MixRunResult r;
    r.lcTailMean = 0.1 + 0.2;
    r.batchSpeedups = {1.0, 2.0, 3.0};
    LcBaseline b;
    b.tailMean = 1.0 / 3.0;
    b.p95 = 77;
    cache.storeMix("v1|mem|mix", r);
    cache.storeLcBaseline("v1|mem|lc", b);
    cache.storeDouble("v1|mem|batch", 2.0 / 3.0);
    auto mix = cache.loadMix("v1|mem|mix");
    ASSERT_TRUE(mix.has_value());
    expectBitIdentical(mix->lcTailMean, r.lcTailMean, "lcTailMean", 0);
    auto lc = cache.loadLcBaseline("v1|mem|lc");
    ASSERT_TRUE(lc.has_value());
    expectBitIdentical(lc->tailMean, b.tailMean, "tailMean", 0);
    EXPECT_EQ(lc->p95, b.p95);
    auto ipc = cache.loadDouble("v1|mem|batch");
    ASSERT_TRUE(ipc.has_value());
    expectBitIdentical(*ipc, 2.0 / 3.0, "batchIpc", 0);
    EXPECT_FALSE(cache.loadMix("v1|mem|absent").has_value());
    CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 3u);
    EXPECT_EQ(st.degraded(), 0u);
}

TEST(ResultCache, OpenWithoutDirServesFromMemoryAndWritesNothing)
{
    // Run in an empty working directory: a memory cache must leave it
    // empty (no log, no claims directory).
    TempCacheDir dir("memory");
    std::filesystem::create_directories(dir.path());
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(dir.path());
    {
        auto cache = ResultCache::open("");
        ASSERT_NE(cache, nullptr);
        EXPECT_FALSE(cache->persistent());
        EXPECT_TRUE(cache->dir().empty());
        expectServesEveryKind(*cache);
    }
    std::filesystem::current_path(cwd);
    EXPECT_TRUE(std::filesystem::is_empty(dir.path()));

    // A directory that cannot be created (its parent is a file) also
    // keeps results in memory, after a warning.
    const std::string file = dir.path() + "/file";
    { std::ofstream(file) << "x"; }
    auto blocked = ResultCache::open(file + "/cache");
    EXPECT_FALSE(blocked->persistent());
    expectServesEveryKind(*blocked);

    auto disk = ResultCache::open(dir.path() + "/disk");
    EXPECT_TRUE(disk->persistent());
    EXPECT_EQ(disk->dir(), dir.path() + "/disk");
}

} // namespace
} // namespace ubik
