/**
 * @file
 * Transient explorer: measure a workload's miss curve through a
 * UMON, then interrogate Ubik's analytical transient model (§5.1) —
 * for each candidate downsizing, how long would the refill transient
 * last, how many cycles would be lost, and what boost would repay
 * them by a given deadline?
 *
 * Useful for building intuition about which workloads Ubik can
 * manage aggressively (cache-intensive, mildly sensitive) and which
 * force conservatism (cliff-shaped curves, tight deadlines).
 *
 * Usage: transient_explorer [lc-app-name]   (default: masstree)
 */

#include <cstdio>
#include <string>

#include "core/transient_model.h"
#include "mon/umon.h"
#include "sim/experiment.h"
#include "workload/lc_app.h"

using namespace ubik;

int
main(int argc, char **argv)
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    std::string app_name = argc > 1 ? argv[1] : "masstree";
    LcAppParams params =
        lc_presets::byName(app_name).scaled(cfg.scale);

    cfg.printHeader(("transient explorer: " + app_name).c_str());

    // 1. Measure the miss curve exactly as the runtime would: by
    //    pushing the app's access stream through a UMON.
    const std::uint64_t llc = cfg.llcLines();
    Umon umon(llc, 32, 32, 1);
    LcApp app(params, 0, Rng(1));
    const std::uint64_t n_accesses = 2000000;
    std::uint64_t fed = 0;
    for (ReqId r = 1; fed < n_accesses; r++) {
        double work = app.startRequest(r);
        std::uint64_t n = app.requestAccesses(work);
        for (std::uint64_t i = 0; i < n && fed < n_accesses;
             i++, fed++)
            umon.access(app.nextAddr());
    }
    MissCurve curve = umon.missCurve(257);
    curve.enforceMonotone();

    std::printf("\nmeasured miss curve (miss probability by "
                "allocation):\n");
    for (int pct : {5, 10, 25, 50, 75, 100})
        std::printf("  %3d%% of LLC (%6llu lines): p = %.4f\n", pct,
                    static_cast<unsigned long long>(llc * pct / 100),
                    curve.missesAtLines(llc * pct / 100) /
                        static_cast<double>(n_accesses));

    // 2. Timing profile consistent with the app's parameters.
    CoreProfile prof;
    prof.missPenalty = 220.0 / params.mlp;
    prof.hitCyclesPerAccess =
        1000.0 / (params.apki * params.baseIpc) + 5.0;
    prof.valid = true;
    TransientModel model(curve, n_accesses, prof);
    std::printf("\ntiming profile: c = %.1f cycles/access, M = %.1f "
                "cycles/miss\n",
                model.c(), model.m());

    // 3. The paper's two questions for every candidate downsizing.
    const std::uint64_t target = cfg.privateLines();
    std::printf("\ntransients for refilling to the target (%llu "
                "lines):\n%8s %16s %14s\n",
                static_cast<unsigned long long>(target), "s_idle",
                "T_transient(ms)", "lost (Kcyc)");
    for (int i = 0; i <= 4; i++) {
        std::uint64_t s_idle = target * i / 4;
        TransientEstimate tr = model.upperBound(s_idle, target);
        if (tr.unbounded) {
            std::printf("%8llu %16s %14s\n",
                        static_cast<unsigned long long>(s_idle),
                        "unbounded", "-");
            continue;
        }
        std::printf("%8llu %16.3f %14.1f\n",
                    static_cast<unsigned long long>(s_idle),
                    cyclesToMs(static_cast<Cycles>(tr.duration)),
                    tr.lostCycles / 1e3);
    }

    std::printf("\nminimal boost repaying a half-target downsizing "
                "by each deadline:\n%14s %12s\n", "deadline(ms)",
                "s_boost");
    std::uint64_t s_idle = target / 2;
    TransientEstimate tr = model.upperBound(s_idle, target);
    for (double ms : {0.05, 0.2, 1.0, 5.0, 25.0}) {
        std::uint64_t boost =
            model.solveBoost(s_idle, target, llc / 2, msToCycles(ms),
                             tr.lostCycles, llc / 256);
        if (boost)
            std::printf("%14.2f %12llu\n", ms,
                        static_cast<unsigned long long>(boost));
        else
            std::printf("%14.2f %12s\n", ms, "infeasible");
    }

    std::printf("\nReading the table: short deadlines make "
                "downsizing infeasible (strict Ubik keeps the "
                "partition); longer ones admit the downsizing with "
                "progressively smaller boosts — the Fig 7 search.\n");
    return 0;
}
