/**
 * @file
 * Quickstart: colocate one latency-critical app with batch work and
 * compare Ubik against a static partition.
 *
 * This is the smallest end-to-end use of the library:
 *  1. pick an LC workload preset and a load point,
 *  2. calibrate its baseline (alone on a private 2MB-equivalent LLC),
 *  3. run the mix on the shared LLC under two policies,
 *  4. read out tail-latency degradation and batch weighted speedup.
 *
 * Runs in seconds at the default 1:8 machine scale (UBIK_SCALE=1 for
 * the paper's full-size machine).
 */

#include <cstdio>

#include "sim/mix_runner.h"
#include "workload/mix.h"

using namespace ubik;

int
main()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.printHeader("quickstart: specjbb (20% load) + f/t/s batch mix");

    // One mix: three specjbb instances plus one cache-friendly, one
    // cache-fitting, one streaming batch app.
    MixSpec mix;
    mix.name = "quickstart";
    mix.lc.app = lc_presets::specjbb();
    mix.lc.load = 0.2;
    mix.batch.name = "fts";
    mix.batch.apps = {
        batch_presets::make(BatchClass::Friendly, 1),
        batch_presets::make(BatchClass::Fitting, 2),
        batch_presets::make(BatchClass::Streaming, 3),
    };

    MixRunner runner(cfg);

    const LcBaseline &base =
        runner.lcBaseline(mix.lc.app, mix.lc.load, /*seed=*/1);
    std::printf("\nbaseline (alone, private LLC): mean service %.3f ms, "
                "95p tail mean %.3f ms\n",
                cyclesToMs(static_cast<Cycles>(base.meanServiceCycles)),
                cyclesToMs(static_cast<Cycles>(base.tailMean)));

    std::printf("\n%-10s %18s %18s\n", "policy", "tail degradation",
                "weighted speedup");
    for (const auto &sut : std::vector<SchemeUnderTest>{
             {"StaticLC", SchemeKind::Vantage, ArrayKind::Z4_52,
              PolicyKind::StaticLc, 0.0},
             {"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
              PolicyKind::Ubik, 0.05},
         }) {
        MixRunResult r = runner.runMix(mix, sut, /*seed=*/1);
        std::printf("%-10s %17.2fx %17.2fx\n", sut.label.c_str(),
                    r.tailDegradation, r.weightedSpeedup);
    }
    std::printf("\nUbik should match StaticLC's tail (within its 5%% "
                "slack) at a higher weighted speedup.\n");
    return 0;
}
