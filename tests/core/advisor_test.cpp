/**
 * @file
 * Tests for the offline Ubik sizing advisor: input validation,
 * feasibility structure (deadline/boost-cap monotonicity, the
 * tight-deadline and insensitive-app regimes), consistency of the
 * reported bounds with TransientModel, and the end-to-end pipeline
 * from a captured trace.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/advisor.h"
#include "trace/trace_analyzer.h"
#include "workload/trace_capture.h"

namespace ubik {
namespace {

constexpr std::uint64_t kTarget = 4096;
constexpr std::uint64_t kAccesses = 100000;

/** Smooth concave miss curve: misses fall linearly to a floor. */
MissCurve
friendlyCurve(std::uint64_t max_lines = kTarget * 4)
{
    std::vector<double> vals;
    const std::size_t points = 65;
    for (std::size_t p = 0; p < points; p++) {
        double frac = static_cast<double>(p) / (points - 1);
        vals.push_back(kAccesses * (0.30 - 0.25 * frac));
    }
    return MissCurve(std::move(vals), max_lines / (points - 1));
}

/** Flat curve: size-insensitive app (the xapian case). */
MissCurve
flatCurve(double miss_frac, std::uint64_t max_lines = kTarget * 4)
{
    std::vector<double> vals(65, kAccesses * miss_frac);
    return MissCurve(std::move(vals), max_lines / 64);
}

CoreProfile
profile()
{
    CoreProfile p;
    p.missPenalty = 100;
    p.hitCyclesPerAccess = 10;
    p.missRate = 0.1;
    p.accessesPerCycle = 0.05;
    p.valid = true;
    return p;
}

AdvisorInput
baseInput(MissCurve curve, Cycles deadline = 50000000)
{
    AdvisorInput in;
    in.curve = std::move(curve);
    in.intervalAccesses = kAccesses;
    in.profile = profile();
    in.targetLines = kTarget;
    in.deadline = deadline;
    in.boostCap = kTarget * 4;
    return in;
}

TEST(Advisor, GenerousDeadlineAllowsDownsizing)
{
    AdvisorReport rep = advise(baseInput(friendlyCurve()));
    EXPECT_TRUE(rep.canDownsize);
    EXPECT_LT(rep.best.sIdle, kTarget);
    EXPECT_GE(rep.best.sBoost, kTarget);
    EXPECT_EQ(rep.best.freedLines, kTarget - rep.best.sIdle);
}

TEST(Advisor, TightDeadlineRefusesDownsizing)
{
    AdvisorReport rep =
        advise(baseInput(friendlyCurve(), /*deadline=*/100));
    EXPECT_FALSE(rep.canDownsize);
    EXPECT_EQ(rep.best.sIdle, kTarget);
    EXPECT_EQ(rep.best.sBoost, kTarget);
}

TEST(Advisor, DeadlineMonotonicity)
{
    // More generous deadlines never free less space.
    std::uint64_t prev_idle = kTarget;
    for (Cycles d : {Cycles(10000), Cycles(1000000), Cycles(100000000),
                     Cycles(10000000000ull)}) {
        AdvisorReport rep = advise(baseInput(friendlyCurve(), d));
        EXPECT_LE(rep.best.sIdle, prev_idle) << "deadline " << d;
        prev_idle = rep.best.sIdle;
    }
}

TEST(Advisor, InsensitiveAppFreesEverythingCheaply)
{
    // Flat miss curve: downsizing costs ~nothing, so the advisor
    // frees (nearly) the whole target without needing a real boost.
    AdvisorReport rep = advise(baseInput(flatCurve(0.05)));
    EXPECT_TRUE(rep.canDownsize);
    EXPECT_EQ(rep.best.sIdle, 0u);
    EXPECT_LE(rep.best.sBoost, kTarget + kTarget / 4);
}

TEST(Advisor, OptionsAreOrderedAndConsistent)
{
    AdvisorReport rep = advise(baseInput(friendlyCurve()));
    ASSERT_FALSE(rep.options.empty());
    for (std::size_t i = 0; i < rep.options.size(); i++) {
        const SizingOption &o = rep.options[i];
        EXPECT_LT(o.sIdle, kTarget);
        EXPECT_EQ(o.freedLines, kTarget - o.sIdle);
        if (i > 0) {
            EXPECT_LT(o.sIdle, rep.options[i - 1].sIdle);
        }
        if (o.feasible) {
            EXPECT_GE(o.sBoost, kTarget);
            EXPECT_GT(o.transientCycles, 0.0);
        }
    }
    // Only the last option may be infeasible (the search stops there).
    for (std::size_t i = 0; i + 1 < rep.options.size(); i++)
        EXPECT_TRUE(rep.options[i].feasible) << i;
}

TEST(Advisor, DeeperIdleCostsMoreTransient)
{
    AdvisorReport rep = advise(baseInput(friendlyCurve()));
    for (std::size_t i = 1; i < rep.options.size(); i++) {
        EXPECT_GE(rep.options[i].transientCycles,
                  rep.options[i - 1].transientCycles);
        EXPECT_GE(rep.options[i].lostCycles,
                  rep.options[i - 1].lostCycles);
    }
}

TEST(Advisor, BoundsMatchTransientModel)
{
    AdvisorInput in = baseInput(friendlyCurve());
    AdvisorReport rep = advise(in);
    TransientModel model(in.curve, in.intervalAccesses, in.profile);
    for (const SizingOption &o : rep.options) {
        TransientEstimate tr = model.upperBound(o.sIdle, kTarget);
        EXPECT_DOUBLE_EQ(o.transientCycles, tr.duration);
        EXPECT_DOUBLE_EQ(o.lostCycles, tr.lostCycles);
    }
}

TEST(Advisor, BoostCapLimitsFeasibility)
{
    // With the boost capped at the target, any lossy downsizing is
    // infeasible (no room to repay).
    AdvisorInput in = baseInput(friendlyCurve());
    in.boostCap = kTarget;
    AdvisorReport rep = advise(in);
    EXPECT_FALSE(rep.canDownsize);
}

TEST(Advisor, EndToEndFromCapturedTrace)
{
    // Capture a cache-friendly LC preset, analyze it, and advise:
    // the pipeline a downstream user runs on real traces.
    LcAppParams params = lc_presets::masstree().scaled(16.0);
    TraceData trace = captureLcTrace(params, /*requests=*/200,
                                     /*seed=*/7);
    TraceAnalysis an = analyzeTrace(trace);
    ASSERT_GT(an.accesses, 0u);
    EXPECT_GT(an.crossRequestReuse, 0.3)
        << "masstree preset must show cross-request reuse (Fig 2)";

    AdvisorInput in;
    std::uint64_t target = params.hotLines;
    in.curve = an.missCurve(65, target * 2);
    in.intervalAccesses = an.accesses;
    in.profile = profile();
    in.targetLines = target;
    in.deadline = 100000000;
    in.boostCap = target * 2;
    AdvisorReport rep = advise(in);
    EXPECT_TRUE(rep.canDownsize);
    EXPECT_LT(rep.best.sIdle, target);
}

using AdvisorDeath = ::testing::Test;

TEST(AdvisorDeath, RejectsEmptyCurve)
{
    AdvisorInput in;
    in.intervalAccesses = 1;
    in.targetLines = 1;
    in.profile = profile();
    EXPECT_DEATH(advise(in), "empty miss curve");
}

TEST(AdvisorDeath, RejectsZeroAccesses)
{
    AdvisorInput in = baseInput(friendlyCurve());
    in.intervalAccesses = 0;
    EXPECT_DEATH(advise(in), "intervalAccesses");
}

TEST(AdvisorDeath, RejectsInvalidProfile)
{
    AdvisorInput in = baseInput(friendlyCurve());
    in.profile.valid = false;
    EXPECT_DEATH(advise(in), "profile");
}

} // namespace
} // namespace ubik
