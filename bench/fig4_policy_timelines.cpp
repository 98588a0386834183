/**
 * @file
 * Reproduces Fig 4: qualitative allocation timelines of UCP,
 * StaticLC, OnOff, and Ubik on a mix of two latency-critical and two
 * batch apps, rendered as sampled per-partition allocation rows.
 */

#include <cstdio>

#include "sim/cmp.h"
#include "sim/experiment.h"
#include "sim/mix_runner.h"
#include "workload/lc_app.h"

using namespace ubik;

namespace {

void
runPolicy(const ExperimentConfig &cfg, PolicyKind policy, double slack)
{
    MixRunner runner(cfg);
    LcAppParams app = lc_presets::specjbb();
    const LcBaseline &base = runner.lcBaseline(app, 0.2, 1);

    CmpConfig cc = cfg.baseCmpConfig();
    cc.policy = policy;
    cc.ubik.slack = slack;
    cc.traceAllocations = true;
    cc.traceInterval = cfg.reconfigInterval() / 16;

    LcAppSpec lc;
    lc.params = app.scaled(cfg.scale);
    lc.meanInterarrival = base.meanInterarrival;
    lc.roiRequests = 60;
    lc.warmupRequests = 20;
    lc.targetLines = cfg.privateLines();
    lc.deadline = base.p95;

    BatchAppSpec b1, b2;
    b1.params =
        batch_presets::make(BatchClass::Friendly, 1).scaled(cfg.scale);
    b2.params =
        batch_presets::make(BatchClass::Fitting, 2).scaled(cfg.scale);

    Cmp cmp(cc, {lc, lc}, {b1, b2}, /*seed=*/5);
    cmp.run();

    std::printf("\n[fig4] %s allocation timeline "
                "(%% of LLC; LC1 LC2 B1 B2 per sample)\n",
                enumName(policy));
    const auto &trace = cmp.allocTrace();
    double total = static_cast<double>(cc.llcLines);
    // Print up to 40 evenly spaced samples.
    std::size_t stride = trace.size() > 40 ? trace.size() / 40 : 1;
    for (std::size_t i = 0; i < trace.size(); i += stride) {
        const auto &s = trace[i];
        std::printf("[fig4] %-9s t=%7.2fms ",
                    enumName(policy), cyclesToMs(s.cycle));
        for (PartId p = 1; p < s.targetLines.size(); p++)
            std::printf(" %5.1f%%",
                        100.0 *
                            static_cast<double>(s.targetLines[p]) /
                            total);
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.printHeader("Fig 4: policy allocation timelines "
                    "(2 LC + 2 batch apps)");

    runPolicy(cfg, PolicyKind::Ucp, 0.0);
    runPolicy(cfg, PolicyKind::StaticLc, 0.0);
    runPolicy(cfg, PolicyKind::OnOff, 0.0);
    runPolicy(cfg, PolicyKind::Ubik, 0.05);

    std::printf("\nExpected shape (paper Fig 4): UCP starves the "
                "mostly-idle LC apps; StaticLC pins their targets "
                "flat; OnOff swings between 0 and the full target on "
                "every idle/active edge; Ubik swings between s_idle "
                "and s_boost with batch apps absorbing the slack.\n");
    return 0;
}
