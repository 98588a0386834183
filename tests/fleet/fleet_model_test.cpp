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
 *  - FleetSpec round-trips through the scenario JSON form, and the
 *    `servers=` override edits it (loudly failing on non-fleet
 *    scenarios).
 */

#include <gtest/gtest.h>

#include "support/cache_test_util.h"
#include "common/log.h"
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
fleetUtilizationSpec()
{
    const ScenarioSpec *spec =
        ScenarioRegistry::instance().find("fleet-utilization");
    EXPECT_NE(spec, nullptr);
    return *spec;
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

TEST(FleetModel, FleetSpecRoundTripsThroughScenarioJson)
{
    ScenarioSpec spec = fleetUtilizationSpec();
    spec.fleet.lcPerServer = 4;
    spec.fleet.batchPerServer = 2;
    spec.fleet.arrivals.imbalance = 0.3;
    spec.fleet.arrivals.profile.kind = LoadProfileKind::Diurnal;
    spec.fleet.queueWorkers = 0;
    spec.fleet.maxWorkers = 6;
    spec.fleet.interference = 0.1;
    spec.fleet.abortProb = 0.01;
    spec.fleet.tailTargetMs = 5.0;
    spec.fleet.sloMargin = 0.08;
    spec.fleet.placementSeed = 9;
    // The u64 seeds take every integer a JSON number holds exactly.
    spec.fleet.arrivals.seed = 1ull << 32;
    spec.fleet.queueSeed = (1ull << 53) - 1;

    ScenarioSpec back = scenarioFromJson(scenarioToJson(spec));
    EXPECT_TRUE(back.fleet == spec.fleet);
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
    fs.lcPerServer = 0;
    EXPECT_THROW(fs.validate("test"), FatalError);
    fs = FleetSpec{};
    fs.servers = 10;
    fs.queueWorkers = 0;
    fs.maxWorkers = 0; // autosize with no headroom
    EXPECT_THROW(fs.validate("test"), FatalError);
    fs = FleetSpec{};
    fs.servers = 10;
    fs.interference = -0.5;
    EXPECT_THROW(fs.validate("test"), FatalError);
}

} // namespace
} // namespace ubik
