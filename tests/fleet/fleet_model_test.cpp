/**
 * @file
 * Fleet stage invariants:
 *
 *  - Golden: the fleet-utilization scenario reproduces the retired
 *    datacenter_utilization example bit for bit — same per-mix sweep
 *    results (the example's runMix calls, replicated inline here)
 *    and the same §7.1 aggregates (0.6 util vs 0.1 dedicated, 6x).
 *  - Determinism: fleet results are bit-identical across UBIK_JOBS
 *    and across cold/warm persistent-cache runs.
 *  - The fleet stage's queue tails and advisor verdicts are result
 *    cache records: a warm fleet stage simulates nothing, fleets of
 *    other sizes share the tails, and a corrupt tail record is
 *    recomputed to the same bits.
 *  - FleetSpec round-trips through the scenario JSON form, and the
 *    `servers=` override edits it (loudly failing on non-fleet
 *    scenarios).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/cache_test_util.h"
#include "common/log.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"

namespace ubik {
namespace {

using test::TempCacheDir;
using test::expectSameResults;

/** Unit-test scale: one seed so the golden replication below is one
 *  runMix call per scheme, exactly like the retired example. */
ExperimentConfig
fleetTestCfg()
{
    ExperimentConfig cfg = test::cacheTestCfg();
    cfg.seeds = 1;
    cfg.jobs = 2;
    return cfg;
}

const ScenarioSpec &
registeredSpec(const char *name)
{
    const ScenarioSpec *spec = ScenarioRegistry::instance().find(name);
    EXPECT_NE(spec, nullptr) << name;
    return *spec;
}

const ScenarioSpec &
fleetUtilizationSpec()
{
    return registeredSpec("fleet-utilization");
}

/** The lines of the one log under `dir`. */
std::vector<std::string>
logLines(const std::string &dir)
{
    std::vector<std::string> lines;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".ubikcache")
            continue;
        std::ifstream in(e.path());
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    return lines;
}

/** The kind of a record line: its key's second field. */
std::string
recordKind(const std::string &line)
{
    const std::size_t a = line.find('|');
    const std::size_t b = line.find('|', a + 1);
    return a == std::string::npos || b == std::string::npos
               ? std::string()
               : line.substr(a + 1, b - a - 1);
}

TEST(FleetModel, GoldenMatchesRetiredDatacenterUtilizationExample)
{
    ExperimentConfig cfg = fleetTestCfg();

    // The retired examples/datacenter_utilization.cpp, inline: one
    // masstree@0.2 + fft mix under StaticLC and Ubik at seed 1.
    MixSpec mix;
    mix.name = "util";
    mix.lc.app = lc_presets::masstree();
    mix.lc.load = 0.2;
    mix.batch.name = "fft";
    mix.batch.apps = {
        batch_presets::make(BatchClass::Friendly, 1),
        batch_presets::make(BatchClass::Friendly, 6),
        batch_presets::make(BatchClass::Fitting, 3),
    };
    SchemeUnderTest static_lc{"StaticLC", SchemeKind::Vantage,
                              ArrayKind::Z4_52, PolicyKind::StaticLc,
                              0.0};
    SchemeUnderTest ubik{"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
                         PolicyKind::Ubik, 0.05};
    MixRunner runner(cfg);
    MixRunResult legacy_static = runner.runMix(mix, static_lc, 1);
    MixRunResult legacy_ubik = runner.runMix(mix, ubik, 1);

    const ScenarioSpec &spec = fleetUtilizationSpec();
    ScenarioResult res = runScenario(spec, scenarioConfig(spec, cfg));

    ASSERT_EQ(res.sweeps.size(), 2u);
    EXPECT_EQ(res.sweeps[0].label, "StaticLC");
    EXPECT_EQ(res.sweeps[1].label, "Ubik");
    expectSameResults(res.sweeps[0].runs, {legacy_static});
    expectSameResults(res.sweeps[1].runs, {legacy_ubik});

    // The example's headline numbers: 3 LC cores at 20% load + 3
    // batch cores at 100% on a 6-core box vs an LC-only fleet.
    ASSERT_TRUE(res.hasFleet);
    EXPECT_EQ(res.fleet.servers, 1000u);
    ASSERT_EQ(res.fleet.schemes.size(), 2u);
    for (const FleetSchemeResult &r : res.fleet.schemes) {
        EXPECT_NEAR(r.utilization, 0.6, 1e-9);
        EXPECT_NEAR(r.dedicatedUtil, 0.1, 1e-9);
        EXPECT_NEAR(r.utilizationLift, 6.0, 1e-9);
        EXPECT_GT(r.machinesSavedVsDedicated, 0);
    }
}

TEST(FleetModel, BitIdenticalAcrossJobsAndCacheState)
{
    const ScenarioSpec &spec = fleetUtilizationSpec();
    TempCacheDir dir("fleet_model");

    ExperimentConfig cfg = scenarioConfig(spec, fleetTestCfg());
    cfg.cacheDir = dir.path();
    cfg.jobs = 1;
    ScenarioResult cold = runScenario(spec, cfg);

    cfg.jobs = 4;
    ScenarioResult warm = runScenario(spec, cfg); // all cache hits

    ExperimentConfig nocache = scenarioConfig(spec, fleetTestCfg());
    nocache.jobs = 3;
    ScenarioResult direct = runScenario(spec, nocache);

    ASSERT_EQ(cold.sweeps.size(), warm.sweeps.size());
    for (std::size_t i = 0; i < cold.sweeps.size(); i++) {
        expectSameResults(cold.sweeps[i].runs, warm.sweeps[i].runs);
        expectSameResults(cold.sweeps[i].runs, direct.sweeps[i].runs);
    }
    std::string a = fleetToJson(cold.fleet).dump(true);
    EXPECT_EQ(a, fleetToJson(warm.fleet).dump(true));
    EXPECT_EQ(a, fleetToJson(direct.fleet).dump(true));
}

TEST(FleetModel, FleetStageReadsTheSweepsBaselinesFromMemory)
{
    // Without a cache directory the sweep and the fleet stage still
    // share one cache, in memory. Every LC baseline the fleet stage
    // reads is one the sweep stored, so a cold fleet stage misses,
    // and then stores, only its own records: the queue tails and the
    // advisor verdict. A second fleet stage on the same cache misses
    // and stores nothing, and composes the same fleet.
    const ScenarioSpec &spec = fleetUtilizationSpec();
    const ExperimentConfig cfg = scenarioConfig(spec, fleetTestCfg());
    std::unique_ptr<ResultCache> cache = ResultCache::open("");
    ASSERT_NE(cache, nullptr);
    const std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
    const std::vector<SweepResult> sweeps =
        runSchemeSweep(cfg, spec.schemes, mixes, spec.ooo, cache.get(),
                       nullptr, nullptr);
    for (const MixSpec &mx : mixes) // the seed-1 baselines it reads
        EXPECT_TRUE(cache->has(
            lcBaselineKey(cfg, mx.lc.app, mx.lc.load, 1, spec.ooo)));
    const CacheStats swept = cache->stats();
    const FleetResult fleet = runFleet(spec.fleet, spec.schemes, mixes,
                                       sweeps, cfg, spec.ooo, cache.get());
    const CacheStats cold = cache->stats();
    EXPECT_GT(cold.stores, swept.stores);
    EXPECT_EQ(cold.misses - swept.misses, cold.stores - swept.stores);
    EXPECT_EQ(cold.mixMisses, swept.mixMisses);
    EXPECT_EQ(cold.corrupt, 0u);

    const FleetResult again = runFleet(spec.fleet, spec.schemes, mixes,
                                       sweeps, cfg, spec.ooo, cache.get());
    const CacheStats warm = cache->stats();
    EXPECT_EQ(warm.misses, cold.misses);
    EXPECT_EQ(warm.stores, cold.stores);
    EXPECT_GT(warm.hits, cold.hits);
    const std::string json = fleetToJson(fleet).dump(true);
    EXPECT_EQ(json, fleetToJson(again).dump(true));

    const ScenarioResult direct = runScenario(spec, cfg, nullptr, nullptr);
    EXPECT_EQ(json, fleetToJson(direct.fleet).dump(true));
}

TEST(FleetModel, QueueTailsAreSharedAcrossFleetSizes)
{
    // A tail's key holds its queue's inputs, not the fleet's size:
    // with no load imbalance every server of a slice runs at the same
    // load, so a fleet of another size asks for tails already stored.
    // The cold fleet stage adds only tails and the advisor verdict to
    // the log.
    const ScenarioSpec &spec = registeredSpec("fleet-sizing");
    ASSERT_EQ(spec.fleet.arrivals.imbalance, 0.0);
    TempCacheDir dir("fleet_sizes");
    ExperimentConfig cfg = scenarioConfig(spec, fleetTestCfg());
    cfg.cacheDir = dir.path();
    std::unique_ptr<ResultCache> cache = ResultCache::open(dir.path());
    const std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
    const std::vector<SweepResult> sweeps =
        runSchemeSweep(cfg, spec.schemes, mixes, spec.ooo, cache.get(),
                       nullptr, nullptr);
    const std::size_t swept = logLines(dir.path()).size();

    runFleet(spec.fleet, spec.schemes, mixes, sweeps, cfg, spec.ooo,
             cache.get());
    const std::vector<std::string> lines = logLines(dir.path());
    ASSERT_GT(lines.size(), swept);
    std::size_t tails = 0, verdicts = 0;
    for (std::size_t i = swept; i < lines.size(); i++) {
        const std::string kind = recordKind(lines[i]);
        tails += kind == "qtail";
        verdicts += kind == "advice";
        EXPECT_TRUE(kind == "qtail" || kind == "advice") << lines[i];
    }
    EXPECT_GT(tails, 1u);
    EXPECT_EQ(verdicts, 1u); // one LC preset

    const CacheStats filled = cache->stats();
    for (std::uint32_t servers : {100u, 1000u}) {
        FleetSpec other = spec.fleet;
        other.servers = servers;
        ASSERT_NE(other.servers, spec.fleet.servers);
        runFleet(other, spec.schemes, mixes, sweeps, cfg, spec.ooo,
                 cache.get());
        EXPECT_EQ(cache->stats().stores, filled.stores) << servers;
        EXPECT_EQ(cache->stats().misses, filled.misses) << servers;
    }
}

TEST(FleetModel, CorruptQueueTailIsRecomputedToTheSameBits)
{
    // A tail record whose payload was damaged fails its checksum: it
    // counts as corrupt, the fleet stage recomputes that tail, and the
    // record it stores is the original, byte for byte.
    const ScenarioSpec &spec = fleetUtilizationSpec();
    TempCacheDir dir("fleet_corrupt_tail");
    ExperimentConfig cfg = scenarioConfig(spec, fleetTestCfg());
    cfg.cacheDir = dir.path();
    const ScenarioResult cold = runScenario(spec, cfg, nullptr, nullptr);

    std::vector<std::string> lines = logLines(dir.path());
    std::string original;
    for (std::string &line : lines)
        if (recordKind(line) == "qtail") {
            original = line;
            // The payload's last hex digit, just before " <crc>".
            char &digit = line[line.rfind(' ') - 1];
            digit = digit == '0' ? '1' : '0';
            break;
        }
    ASSERT_FALSE(original.empty());
    {
        std::ofstream out(dir.path() + "/results.v" +
                              std::to_string(kResultCacheSchemaVersion) +
                              ".ubikcache",
                          std::ios::trunc);
        for (const std::string &line : lines)
            out << line << '\n';
    }

    std::unique_ptr<ResultCache> cache = ResultCache::open(dir.path());
    const ScenarioResult warm =
        runScenario(spec, cfg, cache.get(), nullptr);
    const CacheStats st = cache->stats();
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(logLines(dir.path()).back(), original);
    EXPECT_EQ(fleetToJson(warm.fleet).dump(true),
              fleetToJson(cold.fleet).dump(true));
}

TEST(FleetModel, FleetSpecRoundTripsThroughScenarioJson)
{
    ScenarioSpec spec = fleetUtilizationSpec();
    spec.fleet.arrivals.imbalance = 0.3;
    spec.fleet.arrivals.profile.kind = LoadProfileKind::Diurnal;
    spec.fleet.queueWorkers = 0;
    spec.fleet.interference = 0.1;
    spec.fleet.abortProb = 0.01;
    spec.fleet.tailTargetMs = 5.0;

    ScenarioSpec back = scenarioFromJson(scenarioToJson(spec));
    EXPECT_EQ(scenarioCanonicalJson(back),
              scenarioCanonicalJson(spec));

    // A fleet-less spec serializes without a "fleet" block and comes
    // back fleet-less.
    ScenarioSpec plain = spec;
    plain.fleet = FleetSpec{};
    Json j = scenarioToJson(plain);
    EXPECT_EQ(j.find("fleet"), nullptr);
    EXPECT_EQ(scenarioFromJson(j).fleet.servers, 0u);
}

TEST(FleetModel, ServersOverrideEditsTheFleetStage)
{
    ScenarioSpec spec = fleetUtilizationSpec();
    applyScenarioOverride(spec, "servers=250");
    EXPECT_EQ(spec.fleet.servers, 250u);

    FatalTrap trap;
    EXPECT_THROW(applyScenarioOverride(spec, "servers=0"), FatalError);
    ScenarioSpec plain = spec;
    plain.fleet = FleetSpec{};
    EXPECT_THROW(applyScenarioOverride(plain, "servers=100"),
                 FatalError);
}

TEST(FleetModel, ValidateRejectsNonsense)
{
    FatalTrap trap;
    FleetSpec fs;
    fs.servers = 0;
    EXPECT_NO_THROW(fs.validate("test")); // no fleet stage: a no-op
    fs.servers = 10;
    EXPECT_NO_THROW(fs.validate("test"));
    fs = FleetSpec{};
    fs.servers = 10;
    fs.interference = -0.5;
    EXPECT_THROW(fs.validate("test"), FatalError);
}

} // namespace
} // namespace ubik
