/**
 * @file
 * Golden equivalence for the scenario redesign: running fig9 through
 * the registry (`ubik_run fig9`) must produce MixRunResults
 * bit-identical to the pre-refactor sweep path — paperSchemes over
 * the standard mix matrix, pushed directly through MixRunner +
 * ParallelSweep, exactly the loops the fig9 bench ran before
 * scenarios existed. Also pins the
 * report-time lo/hi split: filtering on structured load metadata
 * partitions the runs the same way the legacy name-substring split
 * did, without dropping or duplicating a run.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/parallel_sweep.h"
#include "sim/scenario.h"
#include "support/cache_test_util.h"

namespace ubik {
namespace {

ExperimentConfig
goldenCfg()
{
    ExperimentConfig cfg;
    cfg.scale = 16.0; // extra small for test runs
    cfg.roiRequests = 20;
    cfg.warmupRequests = 5;
    cfg.seeds = 1;
    cfg.mixesPerLc = 1;
    cfg.jobs = 2;
    return cfg;
}

TEST(ScenarioGolden, Fig9RegistryMatchesLegacySweepBitExactly)
{
    ExperimentConfig cfg = goldenCfg();

    // The pre-refactor fig9 path, verbatim: build the scheme table
    // and the standard matrix, expand the scheme x mix x seed jobs,
    // and run them through the engine.
    std::vector<SchemeUnderTest> schemes = paperSchemes(0.05);
    std::vector<MixSpec> mixes =
        buildMixes(2, /*seed=*/1, cfg.mixesPerLc);
    MixRunner runner(cfg, /*out_of_order=*/true);
    ParallelSweep engine(runner, cfg.jobs);
    std::vector<MixRunResult> legacy =
        engine.run(buildSweepJobs(schemes, mixes, cfg.seeds));
    ASSERT_EQ(legacy.size(),
              schemes.size() * mixes.size() * cfg.seeds);

    // The registry path.
    const ScenarioSpec *spec =
        ScenarioRegistry::instance().find("fig9");
    ASSERT_NE(spec, nullptr);
    ScenarioResult res = runScenario(*spec, cfg);
    ASSERT_EQ(res.sweeps.size(), schemes.size());

    // Same schemes, same mixes, same order, same bits.
    std::vector<MixRunResult> flat;
    for (std::size_t s = 0; s < res.sweeps.size(); s++) {
        EXPECT_EQ(res.sweeps[s].label, schemes[s].label);
        ASSERT_EQ(res.sweeps[s].runs.size(),
                  mixes.size() * cfg.seeds);
        for (std::size_t i = 0; i < res.sweeps[s].runs.size(); i++) {
            EXPECT_EQ(res.sweeps[s].mixNames[i],
                      mixes[i / cfg.seeds].name);
            flat.push_back(res.sweeps[s].runs[i]);
        }
    }
    test::expectSameResults(legacy, flat);
}

TEST(ScenarioGolden, LoadSplitMatchesLegacyNameSubstringSplit)
{
    // fig9's report blocks split lo/hi on MixSpec load metadata; the
    // legacy bench split on name.find("-lo/"). Both must partition
    // the matrix identically (every run in exactly one band).
    ExperimentConfig cfg = goldenCfg();
    const ScenarioSpec &spec =
        *ScenarioRegistry::instance().find("fig9");
    std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);

    SweepResult sweep;
    sweep.label = "meta";
    for (const MixSpec &m : mixes) {
        sweep.runs.emplace_back();
        sweep.mixNames.push_back(m.name);
        sweep.mixLoads.push_back(m.lc.load);
        sweep.seeds.push_back(1);
    }
    auto low = filterByLoad({sweep}, LoadBand::Low).front();
    auto high = filterByLoad({sweep}, LoadBand::High).front();
    EXPECT_EQ(low.runs.size() + high.runs.size(),
              sweep.runs.size());
    for (const std::string &n : low.mixNames)
        EXPECT_NE(n.find("-lo/"), std::string::npos) << n;
    for (const std::string &n : high.mixNames)
        EXPECT_NE(n.find("-hi/"), std::string::npos) << n;
    EXPECT_FALSE(low.runs.empty());
    EXPECT_FALSE(high.runs.empty());
}

} // namespace
} // namespace ubik
