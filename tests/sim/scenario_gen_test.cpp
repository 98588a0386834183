/**
 * @file
 * Tests for the seeded random-scenario generator (sim/scenario_gen.h):
 * purity in the seed, validity of every emitted spec, JSON round-trip
 * through the exact path `ubik_gen | ubik_run --spec` uses, and the
 * quantization that keeps a large generated batch CI-feasible.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/scenario_gen.h"

namespace ubik {
namespace {

ExperimentConfig
tinyCfg()
{
    ExperimentConfig cfg;
    cfg.scale = 16.0;
    cfg.roiRequests = 10;
    cfg.warmupRequests = 2;
    cfg.seeds = 1;
    cfg.mixesPerLc = 1;
    cfg.jobs = 1;
    return cfg;
}

TEST(ScenarioGen, PureInSeed)
{
    for (std::uint64_t seed : {0ull, 1ull, 42ull, 999999ull}) {
        ScenarioSpec a = generateScenario(seed);
        ScenarioSpec b = generateScenario(seed);
        EXPECT_EQ(scenarioCanonicalJson(a), scenarioCanonicalJson(b));
        EXPECT_EQ(a.name, "gen-" + std::to_string(seed));
    }
}

TEST(ScenarioGen, SeedsDiffer)
{
    // Not literally all distinct (the knob space is quantized), but a
    // small window must not collapse to one spec.
    std::set<std::string> bodies;
    for (std::uint64_t s = 0; s < 32; s++) {
        ScenarioSpec spec = generateScenario(s);
        spec.name.clear(); // ignore the seed-bearing name/title
        spec.title.clear();
        bodies.insert(scenarioCanonicalJson(spec));
    }
    EXPECT_GT(bodies.size(), 16u);
}

TEST(ScenarioGen, EverySpecIsValidAndRoundTrips)
{
    ExperimentConfig cfg = tinyCfg();
    std::set<std::string> kinds;
    std::set<std::string> presets;
    for (std::uint64_t s = 0; s < 200; s++) {
        ScenarioSpec spec = generateScenario(s);

        // Structure: the property suite's contract.
        ASSERT_EQ(spec.schemes.size(), 2u) << spec.name;
        EXPECT_EQ(spec.schemes[0].label, "StaticLC");
        EXPECT_EQ(spec.schemes[1].label, "Ubik");
        EXPECT_GT(spec.schemes[1].slack, 0.0);
        ASSERT_EQ(spec.mixes.size(), 1u);
        EXPECT_EQ(spec.seeds, 1u);

        // validate() was already called inside the generator; the
        // mixes must expand cleanly too (bad presets would fatal).
        std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
        ASSERT_EQ(mixes.size(), 1u);
        EXPECT_EQ(mixes[0].lc.profile, spec.profile);

        // The exact ubik_gen -> ubik_run --spec path.
        ScenarioSpec back = scenarioFromJson(scenarioToJson(spec));
        EXPECT_EQ(scenarioCanonicalJson(back),
                  scenarioCanonicalJson(spec))
            << spec.name;
        EXPECT_EQ(back.profile, spec.profile);

        kinds.insert(enumName(spec.profile.kind));
        presets.insert(spec.mixes[0].lcPreset);
    }
    // 200 seeds cover every profile kind and every LC preset.
    EXPECT_EQ(kinds.size(), 5u);
    EXPECT_EQ(presets.size(), 5u);
}

TEST(ScenarioGen, QuantizationKeepsBaselinePoolSmall)
{
    // The whole point of quantized knobs: hundreds of scenarios share
    // a handful of LC baselines (preset x load x seed), so a batched
    // property sweep pays the baseline cost once, not per scenario.
    std::set<std::string> lcBaselines;
    std::set<std::string> batchApps;
    for (std::uint64_t s = 0; s < 200; s++) {
        ScenarioSpec spec = generateScenario(s);
        lcBaselines.insert(spec.mixes[0].lcPreset + "@" +
                           std::to_string(spec.mixes[0].load));
        for (const BatchSel &b : spec.mixes[0].batch)
            batchApps.insert(std::string(enumName(b.cls)) +
                             std::to_string(b.variation));
    }
    EXPECT_LE(lcBaselines.size(), 10u); // 5 presets x 2 loads
    EXPECT_LE(batchApps.size(), 16u);   // 4 classes x 4 variations
}

} // namespace
} // namespace ubik
