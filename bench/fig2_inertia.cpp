/**
 * @file
 * Reproduces Fig 2: LLC access breakdown by "requests ago" (hits
 * classified by how many requests back the line was last touched)
 * with 2MB- and 8MB-equivalent LLCs, plus APKI — the performance-
 * inertia characterization.
 */

#include <cstdio>

#include "sim/cmp.h"
#include "sim/experiment.h"
#include "workload/lc_app.h"

using namespace ubik;

namespace {

void
runOne(const ExperimentConfig &cfg, const LcAppParams &app,
       std::uint64_t llc_lines, const char *tag)
{
    CmpConfig cc = cfg.baseCmpConfig();
    cc.privateLlc = true;
    cc.privateLinesPerCore = llc_lines;
    cc.trackInertia = true;

    LcAppSpec spec;
    spec.params = app.scaled(cfg.scale);
    spec.meanInterarrival = 0; // back-to-back requests, as in Fig 2
    spec.roiRequests = cfg.roiRequests * 2;
    spec.warmupRequests = cfg.warmupRequests;
    spec.targetLines = llc_lines;

    Cmp cmp(cc, {spec}, {}, /*seed=*/1);
    cmp.run();
    const LcResult &r = cmp.lcResult(0);

    double total = static_cast<double>(r.accesses);
    std::printf("[%s] %-9s APKI=%5.1f  misses=%5.1f%%  hits by "
                "requests-ago:",
                tag, app.name.c_str(), r.apki(),
                100.0 * static_cast<double>(r.misses) / total);
    for (int age = 0; age <= 8; age++)
        std::printf(" %d:%4.1f%%", age,
                    100.0 * static_cast<double>(r.hitsByAge[age]) /
                        total);
    std::printf(" (8 = 8+ requests ago)\n");
}

} // namespace

int
main()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.printHeader("Fig 2: LLC access breakdown / performance "
                    "inertia (2MB vs 8MB equivalents)");

    std::printf("\n[fig2a] 2MB-equivalent LLC\n");
    for (const auto &app : lc_presets::all())
        runOne(cfg, app, cfg.privateLines(), "fig2a");

    std::printf("\n[fig2b] 8MB-equivalent LLC\n");
    for (const auto &app : lc_presets::all())
        runOne(cfg, app, cfg.llc8MbLines(), "fig2b");

    std::printf("\nExpected shape (paper Fig 2): >50%% of hits come "
                "from lines last touched by *previous* requests; the "
                "8MB cache shows lower miss rates and deeper "
                "cross-request reuse (more inertia).\n");
    return 0;
}
