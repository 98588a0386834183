/**
 * @file
 * Tests for the time-varying load profiles (workload/load_profile.h):
 * per-kind rate semantics, window placement determinism (correlated
 * bursts), parameter validation, and the canonical form the
 * result-cache keys and spec JSON depend on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "workload/load_profile.h"

namespace ubik {
namespace {

TEST(LoadProfile, ConstantIsIdentity)
{
    LoadProfile p;
    EXPECT_TRUE(p.isConstant());
    for (double t : {0.0, 0.3, 0.99, 1.7}) {
        EXPECT_DOUBLE_EQ(p.scaleAt(t), 1.0);
        EXPECT_DOUBLE_EQ(p.nextActiveFrac(t), t);
    }
    EXPECT_EQ(p.canonical(), "constant");
}

TEST(LoadProfile, DiurnalSwingsAroundNominal)
{
    LoadProfile p;
    p.kind = LoadProfileKind::Diurnal;
    p.amplitude = 0.5;
    p.periods = 1.0;
    EXPECT_DOUBLE_EQ(p.scaleAt(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.scaleAt(0.25), 1.5); // sine peak
    EXPECT_NEAR(p.scaleAt(0.5), 1.0, 1e-12);
    EXPECT_NEAR(p.scaleAt(0.75), 0.5, 1e-12); // trough
    // Keeps oscillating past the nominal span (a slow run never sees
    // a discontinuity).
    EXPECT_NEAR(p.scaleAt(1.25), 1.5, 1e-12);
    // Two periods compress the cycle.
    p.periods = 2.0;
    EXPECT_NEAR(p.scaleAt(0.125), 1.5, 1e-12);
}

TEST(LoadProfile, FlashCrowdWindowIsHalfOpen)
{
    // 0.25 + 0.25 is exact in binary, so the window edges are sharp
    // (with inexact sums like 0.4 + 0.2 the edge lands one ulp past
    // the nominal value — harmless for arrivals, hostile to ==).
    LoadProfile p;
    p.kind = LoadProfileKind::FlashCrowd;
    p.start = 0.25;
    p.duration = 0.25;
    p.multiplier = 3.0;
    EXPECT_DOUBLE_EQ(p.scaleAt(0.24999), 1.0);
    EXPECT_DOUBLE_EQ(p.scaleAt(0.25), 3.0);
    EXPECT_DOUBLE_EQ(p.scaleAt(0.49999), 3.0);
    EXPECT_DOUBLE_EQ(p.scaleAt(0.5), 1.0);
    // The rate never drops, so the pump never needs to skip ahead.
    EXPECT_DOUBLE_EQ(p.nextActiveFrac(0.5), 0.5);
}

TEST(LoadProfile, ChurnWindowSilencesArrivals)
{
    LoadProfile p;
    p.kind = LoadProfileKind::Churn;
    p.start = 0.35;
    p.duration = 0.3;
    EXPECT_DOUBLE_EQ(p.scaleAt(0.3), 1.0);
    EXPECT_DOUBLE_EQ(p.scaleAt(0.35), 0.0);
    EXPECT_DOUBLE_EQ(p.scaleAt(0.64), 0.0);
    EXPECT_DOUBLE_EQ(p.scaleAt(0.65), 1.0);
    // Inside the window the next active point is its end; outside it
    // is the identity.
    EXPECT_DOUBLE_EQ(p.nextActiveFrac(0.5), 0.65);
    EXPECT_DOUBLE_EQ(p.nextActiveFrac(0.2), 0.2);
    EXPECT_DOUBLE_EQ(p.nextActiveFrac(0.65), 0.65);
    EXPECT_DOUBLE_EQ(p.scaleAt(p.nextActiveFrac(0.5)), 1.0);
}

TEST(LoadProfile, BurstWindowsAreDeterministicAndCorrelated)
{
    LoadProfile a;
    a.kind = LoadProfileKind::Bursts;
    a.bursts = 4;
    a.duration = 0.05;
    a.multiplier = 4.0;
    a.burstSeed = 1;
    LoadProfile b = a; // a co-located instance sharing the profile

    // Same seed -> the same windows everywhere: that sameness is what
    // makes co-located bursts correlated.
    int elevated = 0;
    for (int i = 0; i < 1000; i++) {
        double t = i / 1000.0;
        EXPECT_DOUBLE_EQ(a.scaleAt(t), b.scaleAt(t));
        if (a.scaleAt(t) > 1.0)
            elevated++;
    }
    // Windows exist and cover roughly bursts * duration of the span
    // (less if they overlap).
    EXPECT_GT(elevated, 0);
    EXPECT_LE(elevated, 4 * 50 + 4);

    // A different seed moves the windows.
    LoadProfile c = a;
    c.burstSeed = 2;
    int differs = 0;
    for (int i = 0; i < 1000; i++) {
        double t = i / 1000.0;
        if (a.scaleAt(t) != c.scaleAt(t))
            differs++;
    }
    EXPECT_GT(differs, 0);

    // In-window rate is the multiplier exactly; outside is nominal.
    for (int i = 0; i < 1000; i++) {
        double s = a.scaleAt(i / 1000.0);
        EXPECT_TRUE(s == 1.0 || s == 4.0) << "t = " << i / 1000.0;
    }
}

TEST(LoadProfile, ValidateRejectsBadParameters)
{
    LoadProfile p;
    p.kind = LoadProfileKind::Diurnal;
    p.amplitude = 1.5;
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1),
                "amplitude");
    p.amplitude = 0.5;
    p.periods = 0;
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1),
                "periods");

    p = LoadProfile();
    p.kind = LoadProfileKind::FlashCrowd;
    p.start = 1.0;
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1), "start");
    p.start = 0.9;
    p.duration = 0.2; // runs past the span
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1),
                "duration");
    p = LoadProfile();
    p.kind = LoadProfileKind::FlashCrowd;
    p.multiplier = 1.0;
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1),
                "multiplier");

    p = LoadProfile();
    p.kind = LoadProfileKind::Bursts;
    p.bursts = 0;
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1),
                "bursts");
    p = LoadProfile();
    p.kind = LoadProfileKind::Bursts;
    p.duration = 0.6;
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1),
                "duration");

    p = LoadProfile();
    p.kind = LoadProfileKind::Churn;
    p.start = -0.1;
    EXPECT_EXIT(p.validate("t"), testing::ExitedWithCode(1), "start");

    // Every registered default is valid for its kind.
    for (LoadProfileKind k :
         {LoadProfileKind::Constant, LoadProfileKind::Diurnal,
          LoadProfileKind::FlashCrowd, LoadProfileKind::Bursts,
          LoadProfileKind::Churn}) {
        LoadProfile d;
        d.kind = k;
        d.validate("defaults");
    }
}

TEST(LoadProfile, KindNamesRoundTrip)
{
    for (LoadProfileKind k :
         {LoadProfileKind::Constant, LoadProfileKind::Diurnal,
          LoadProfileKind::FlashCrowd, LoadProfileKind::Bursts,
          LoadProfileKind::Churn}) {
        LoadProfileKind back;
        ASSERT_TRUE(
            tryEnumFromName(enumName(k), back));
        EXPECT_EQ(back, k);
    }
    LoadProfileKind out;
    EXPECT_FALSE(tryEnumFromName("flashcrowd", out));
    EXPECT_FALSE(tryEnumFromName("", out));
}

TEST(LoadProfile, CanonicalCoversKindRelevantParamsOnly)
{
    // Equal profiles (kind-relevant params) compare equal even when
    // irrelevant fields differ — the cache-key equality contract.
    LoadProfile a, b;
    a.kind = b.kind = LoadProfileKind::Diurnal;
    b.start = 0.9; // irrelevant for diurnal
    b.burstSeed = 77;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.canonical(), b.canonical());

    // Any kind-relevant change changes the string.
    std::set<std::string> keys;
    for (double amp : {0.25, 0.5, 0.75})
        for (double per : {1.0, 2.0}) {
            LoadProfile d;
            d.kind = LoadProfileKind::Diurnal;
            d.amplitude = amp;
            d.periods = per;
            keys.insert(d.canonical());
        }
    EXPECT_EQ(keys.size(), 6u);

    // Kinds never collide.
    for (LoadProfileKind k :
         {LoadProfileKind::Constant, LoadProfileKind::Diurnal,
          LoadProfileKind::FlashCrowd, LoadProfileKind::Bursts,
          LoadProfileKind::Churn}) {
        LoadProfile d;
        d.kind = k;
        keys.insert(d.canonical());
    }
    EXPECT_EQ(keys.size(), 6u + 4u); // diurnal default was counted
}

} // namespace
} // namespace ubik
