/**
 * @file
 * Ablation for Figs 5-7: validates the analytical transient model
 * against measured Vantage transients, and shows the s_idle/s_boost
 * search's cost-benefit table.
 *
 * Part 1 (Fig 5): warm a partition at s1, upsize to s2, and measure
 * the actual fill time and excess misses under a synthetic timing
 * model; compare with TransientModel's exact sum and conservative
 * upper bound. The bound must hold (measured <= exact <= bound,
 * statistically) and stay within a small constant factor.
 *
 * Part 2 (Figs 6-7): print the feasible (s_idle, s_boost) options
 * Ubik evaluates for a representative app across deadlines.
 */

#include <cstdio>

#include "cache/vantage.h"
#include "cache/zcache_array.h"
#include "core/transient_model.h"
#include "mon/umon.h"
#include "sim/experiment.h"
#include "common/rng.h"

using namespace ubik;

namespace {

constexpr std::uint64_t kLlc = 24576;
constexpr double kHitCost = 60;
constexpr double kMissCost = 160;

struct WarmedApp
{
    std::unique_ptr<Vantage> scheme;
    std::unique_ptr<Umon> umon;
    std::unique_ptr<ZipfDistribution> zipf;
    Rng rng{7};
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    explicit WarmedApp(std::uint64_t ws, double theta)
    {
        scheme = std::make_unique<Vantage>(
            std::make_unique<ZCacheArray>(kLlc, 4, 52, 3), 3);
        umon = std::make_unique<Umon>(kLlc, 32, 32, 9);
        zipf = std::make_unique<ZipfDistribution>(ws, theta);
    }

    bool
    access()
    {
        Addr addr = (*zipf)(rng);
        AccessContext ctx{1, 0, 0};
        bool hit = scheme->access(addr, ctx).hit;
        umon->access(addr);
        accesses++;
        misses += hit ? 0 : 1;
        return hit;
    }

    /** Steady-state pressure from a competing partition. */
    void
    pressure(std::uint64_t n)
    {
        AccessContext ctx{2, 1, 0};
        static Addr cursor = 1ull << 41;
        for (std::uint64_t i = 0; i < n; i++)
            scheme->access(cursor++, ctx);
    }
};

void
measureTransient(std::uint64_t ws, double theta, std::uint64_t s1,
                 std::uint64_t s2)
{
    WarmedApp app(ws, theta);
    // Warm at s1 with competing pressure holding the boundary.
    app.scheme->setTargetSize(1, s1);
    app.scheme->setTargetSize(2, kLlc - s1);
    for (int i = 0; i < 600000; i++) {
        app.access();
        if (i % 2 == 0)
            app.pressure(1);
    }

    // Build the model from the warmed UMON + steady-state profile.
    app.umon->resetCounters();
    app.accesses = app.misses = 0;
    for (int i = 0; i < 300000; i++) {
        app.access();
        if (i % 2 == 0)
            app.pressure(1);
    }
    MissCurve curve = app.umon->missCurve(257);
    curve.enforceMonotone();
    CoreProfile prof;
    prof.missPenalty = kMissCost;
    prof.hitCyclesPerAccess = kHitCost;
    prof.missRate = static_cast<double>(app.misses) /
                    static_cast<double>(app.accesses);
    prof.valid = true;
    TransientModel model(curve, app.accesses, prof);

    double p2 = model.missProb(s2);
    TransientEstimate exact = model.exact(s1, s2);
    TransientEstimate bound = model.upperBound(s1, s2);

    // Measured transient: upsize and count cycles + excess misses
    // until the partition reaches (98% of) its new effective target.
    app.scheme->setTargetSize(1, s2);
    app.scheme->setTargetSize(2, kLlc - s2);
    std::uint64_t goal =
        app.scheme->effectiveTarget(1) * 98 / 100;
    double cycles = 0, excess = 0;
    std::uint64_t steps = 0;
    const std::uint64_t max_steps = 30000000;
    while (app.scheme->actualSize(1) < goal && steps < max_steps) {
        bool hit = app.access();
        cycles += kHitCost + (hit ? 0 : kMissCost);
        if (!hit)
            excess += 1.0 - p2; // misses beyond the steady state
        if (steps % 2 == 0)
            app.pressure(1);
        steps++;
    }

    std::printf("[fig5] ws=%5llu theta=%.2f  %5llu->%5llu lines: "
                "measured %8.2fM cycles, exact-sum %8.2fM, "
                "upper-bound %8.2fM (bound/measured %4.1fx); "
                "lost-cycles bound %7.0fK vs measured excess %7.0fK\n",
                static_cast<unsigned long long>(ws), theta,
                static_cast<unsigned long long>(s1),
                static_cast<unsigned long long>(s2), cycles / 1e6,
                exact.duration / 1e6, bound.duration / 1e6,
                cycles > 0 ? bound.duration / cycles : 0.0,
                bound.lostCycles / 1e3, excess * kMissCost / 1e3);
}

} // namespace

int
main()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.printHeader("Ablation (Figs 5-7): transient bounds vs "
                    "measured Vantage transients");

    std::printf("\n[fig5] transient validation "
                "(bound must cover measured)\n");
    measureTransient(16384, 0.7, 4096, 8192);
    measureTransient(16384, 0.7, 2048, 8192);
    measureTransient(16384, 0.9, 4096, 12288);
    measureTransient(32768, 0.6, 4096, 8192);

    // Fig 6/7: the boost search for a representative miss curve.
    std::printf("\n[fig7] s_idle/s_boost feasibility for a friendly "
                "app (target=8192 lines, c=%g, M=%g)\n",
                kHitCost, kMissCost);
    {
        // Synthetic concave curve over the LLC.
        std::vector<double> v;
        double acc = 1e6;
        for (int i = 0; i <= 256; i++)
            v.push_back(acc * 0.5 /
                        (1.0 + 8.0 * static_cast<double>(i) / 256));
        MissCurve curve(std::move(v), kLlc / 256);
        CoreProfile prof;
        prof.missPenalty = kMissCost;
        prof.hitCyclesPerAccess = kHitCost;
        prof.valid = true;
        TransientModel model(curve, 1000000, prof);
        const std::uint64_t s_active = 8192;
        for (Cycles deadline :
             {200000u, 1000000u, 5000000u, 25000000u}) {
            std::printf("[fig7] deadline=%8.2fms:",
                        cyclesToMs(deadline));
            for (int i = 4; i >= 0; i--) {
                std::uint64_t s_idle = s_active * i / 4;
                TransientEstimate tr =
                    model.upperBound(s_idle, s_active);
                std::uint64_t s_boost = model.solveBoost(
                    s_idle, s_active, kLlc / 2, deadline,
                    tr.lostCycles, kLlc / 256);
                if (s_boost)
                    std::printf("  idle=%5llu boost=%5llu",
                                static_cast<unsigned long long>(
                                    s_idle),
                                static_cast<unsigned long long>(
                                    s_boost));
                else
                    std::printf("  idle=%5llu INFEASIBLE",
                                static_cast<unsigned long long>(
                                    s_idle));
            }
            std::printf("\n");
        }
    }

    std::printf("\nExpected shape: upper bounds always cover the "
                "measured transients (typically within ~1-5x, the "
                "price of conservatism); longer deadlines admit "
                "deeper idle sizes with modest boosts, shorter ones "
                "turn aggressive options infeasible (Fig 7).\n");
    return 0;
}
