/**
 * @file
 * Tests for the analytical transient model (§5.1), anchored on the
 * paper's worked example: IPC = 1.5, 5 LLC accesses per kilo-
 * instruction, 10% miss rate, M = 100 => c = 123, and a 1MB -> 2MB
 * transient bounded by 21.8M cycles with at most 819K lost cycles.
 */

#include <gtest/gtest.h>

#include "core/transient_model.h"

namespace ubik {
namespace {

CoreProfile
paperProfile()
{
    CoreProfile p;
    p.missPenalty = 100.0;
    p.hitCyclesPerAccess = 123.0;
    p.missRate = 0.1;
    p.accessesPerCycle = 1.0 / 133.0;
    p.valid = true;
    return p;
}

/** Miss curve with p(1MB) = 0.2 and p(2MB) = 0.1 over 1M accesses. */
MissCurve
paperCurve(std::uint64_t accesses = 1000000)
{
    // 2MB = 32768 lines; linear from p=0.3 at 0 to p=0.1 at 32768,
    // passing through p(16384) = 0.2.
    double n = static_cast<double>(accesses);
    return MissCurve({0.3 * n, 0.2 * n, 0.1 * n}, 16384);
}

TEST(TransientModel, MissProbabilityFromCurve)
{
    CoreProfile prof = paperProfile();
    MissCurve curve = paperCurve();
    TransientModel m(curve, 1000000, prof);
    EXPECT_NEAR(m.missProb(0), 0.3, 1e-12);
    EXPECT_NEAR(m.missProb(16384), 0.2, 1e-12);
    EXPECT_NEAR(m.missProb(32768), 0.1, 1e-12);
    EXPECT_NEAR(m.missProb(8192), 0.25, 1e-12);
}

TEST(TransientModel, PaperUpperBoundExample)
{
    // (s2 - s1) = 16384 lines; bound = 16384 * (123/0.1 + 100)
    // = 21.8M cycles; lost <= 100 * 16384 * (1 - 0.5) = 819K.
    CoreProfile prof = paperProfile();
    MissCurve curve = paperCurve();
    TransientModel m(curve, 1000000, prof);
    TransientEstimate est = m.upperBound(16384, 32768);
    EXPECT_FALSE(est.unbounded);
    EXPECT_NEAR(est.duration, 16384.0 * (123.0 / 0.1 + 100.0), 1.0);
    EXPECT_NEAR(est.duration / 1e6, 21.79, 0.05);
    EXPECT_NEAR(est.lostCycles, 100.0 * 16384.0 * 0.5, 1.0);
    EXPECT_NEAR(est.lostCycles / 1e3, 819.2, 1.0);
}

TEST(TransientModel, ExactNeverExceedsUpperBound)
{
    CoreProfile prof = paperProfile();
    MissCurve curve = paperCurve();
    TransientModel m(curve, 1000000, prof);
    for (std::uint64_t s1 : {0u, 4096u, 16384u, 24576u}) {
        for (std::uint64_t s2 : {8192u, 16384u, 32768u}) {
            if (s2 <= s1)
                continue;
            TransientEstimate ex = m.exact(s1, s2);
            TransientEstimate ub = m.upperBound(s1, s2);
            ASSERT_FALSE(ub.unbounded);
            EXPECT_LE(ex.duration, ub.duration * (1 + 1e-9));
            EXPECT_LE(ex.lostCycles, ub.lostCycles * (1 + 1e-9));
        }
    }
}

TEST(TransientModel, NoTransientWhenNotGrowing)
{
    TransientModel m(paperCurve(), 1000000, paperProfile());
    TransientEstimate est = m.upperBound(32768, 32768);
    EXPECT_EQ(est.duration, 0.0);
    EXPECT_EQ(est.lostCycles, 0.0);
    est = m.upperBound(32768, 16384); // shrink: no fill transient
    EXPECT_EQ(est.duration, 0.0);
}

TEST(TransientModel, UnboundedWhenTargetUnfillable)
{
    // Miss rate ~ 0 at the target: the partition can never fill.
    MissCurve curve({1000.0, 0.0, 0.0}, 1024);
    CoreProfile prof = paperProfile();
    TransientModel m(curve, 1000000, prof);
    TransientEstimate est = m.upperBound(0, 2048);
    EXPECT_TRUE(est.unbounded);
}

TEST(TransientModel, FlatCurveLosesNothing)
{
    // Insensitive app: p constant => upsizing hurts nobody, and the
    // transient is pure fill time.
    double n = 1e6;
    MissCurve curve({0.2 * n, 0.2 * n, 0.2 * n}, 1024);
    TransientModel m(curve, 1000000, paperProfile());
    TransientEstimate est = m.upperBound(0, 2048);
    EXPECT_FALSE(est.unbounded);
    EXPECT_NEAR(est.lostCycles, 0.0, 1e-9);
    EXPECT_GT(est.duration, 0.0);
}

TEST(TransientModel, LostCyclesScaleWithMissRateDelta)
{
    // Steeper curves lose more during the transient (§5.1: cycles
    // lost depend on the miss-rate difference).
    double n = 1e6;
    MissCurve steep({0.4 * n, 0.1 * n}, 8192);
    MissCurve shallow({0.15 * n, 0.1 * n}, 8192);
    TransientModel ms(steep, 1000000, paperProfile());
    TransientModel mh(shallow, 1000000, paperProfile());
    EXPECT_GT(ms.upperBound(0, 8192).lostCycles,
              2 * mh.upperBound(0, 8192).lostCycles);
}

TEST(TransientModel, GainRatePositiveOnlyWhenBiggerHelps)
{
    TransientModel m(paperCurve(), 1000000, paperProfile());
    EXPECT_GT(m.gainRate(16384, 32768), 0.0);
    EXPECT_EQ(m.gainRate(32768, 16384), 0.0); // not bigger
    // Flat region: no gain.
    double n = 1e6;
    MissCurve flat({0.2 * n, 0.2 * n}, 16384);
    TransientModel mf(flat, 1000000, paperProfile());
    EXPECT_EQ(mf.gainRate(0, 16384), 0.0);
}

TEST(TransientModel, GainRateMatchesHandComputation)
{
    // gain = (p_small - p_big) * M / (c + p_big * M)
    //      = (0.2 - 0.1) * 100 / (123 + 10) = 10/133.
    TransientModel m(paperCurve(), 1000000, paperProfile());
    EXPECT_NEAR(m.gainRate(16384, 32768), 10.0 / 133.0, 1e-9);
}

TEST(TransientModel, RepaymentIdentity)
{
    // Boosting must be able to repay the transient: with the paper's
    // numbers, running at s_boost = 2MB vs s_active = 1MB gains
    // 10/133 cycles per cycle, so repaying 819K lost cycles needs
    // ~10.9M cycles of boosted execution. Sanity-check that a
    // deadline of 2x that suffices while half of it does not.
    TransientModel m(paperCurve(), 1000000, paperProfile());
    TransientEstimate tr = m.upperBound(16384, 32768);
    double g = m.gainRate(16384, 32768);
    double repay_cycles = tr.lostCycles / g;
    EXPECT_NEAR(repay_cycles / 1e6, 10.9, 0.1);
}

TEST(TransientModel, SolveBoostFindsSmallestRepayingStep)
{
    TransientModel m(paperCurve(), 1000000, paperProfile());
    const std::uint64_t s_idle = 8192, s_act = 16384, cap = 32768;
    const std::uint64_t step = 1024;
    const double lost = m.upperBound(s_idle, s_act).lostCycles;
    ASSERT_GT(lost, 0);

    // Nothing lost: s_active itself; no deadline, or one the fill
    // alone overruns: no boost repays.
    EXPECT_EQ(m.solveBoost(s_idle, s_act, cap, 30000000, 0.0, step),
              s_act);
    EXPECT_EQ(m.solveBoost(s_idle, s_act, cap, 0, lost, step), 0u);
    EXPECT_EQ(m.solveBoost(s_idle, s_act, cap, 1000, lost, step), 0u);

    // A 30M-cycle deadline: one step's gain falls short, two repay.
    const Cycles deadline = 30000000;
    auto repays = [&](std::uint64_t s) {
        TransientEstimate fill = m.upperBound(s_idle, s);
        return m.gainRate(s_act, s) *
                   (static_cast<double>(deadline) - fill.duration) >=
               lost;
    };
    std::uint64_t b =
        m.solveBoost(s_idle, s_act, cap, deadline, lost, step);
    EXPECT_EQ(b, s_act + 2 * step);
    EXPECT_TRUE(repays(b));
    EXPECT_FALSE(repays(b - step));
}

class TransientSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(TransientSweep, BoundsMonotoneInDistance)
{
    auto [p_lo, m_pen] = GetParam();
    double n = 1e6;
    MissCurve curve({0.5 * n, p_lo * n}, 32768);
    CoreProfile prof = paperProfile();
    prof.missPenalty = m_pen;
    TransientModel m(curve, 1000000, prof);
    double prev_dur = 0, prev_lost = -1;
    for (std::uint64_t s2 = 4096; s2 <= 32768; s2 += 4096) {
        TransientEstimate est = m.upperBound(0, s2);
        ASSERT_FALSE(est.unbounded);
        EXPECT_GE(est.duration, prev_dur);
        EXPECT_GE(est.lostCycles, prev_lost);
        prev_dur = est.duration;
        prev_lost = est.lostCycles;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Curves, TransientSweep,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.3),
                       ::testing::Values(50.0, 100.0, 300.0)));

} // namespace
} // namespace ubik
