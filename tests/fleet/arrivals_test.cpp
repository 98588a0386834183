/**
 * @file
 * Cluster arrival model invariants: pure-seed determinism, load
 * clamping, profile coupling, and loud validation.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "fleet/arrivals.h"

namespace ubik {
namespace {

TEST(ClusterArrivals, ConstantBalancedLoadIsExactlyNominal)
{
    ArrivalSpec spec;
    spec.nominalLoad = 0.2;
    spec.slices = 4;
    spec.imbalance = 0.0;
    ClusterArrivals arr(spec, 100);
    for (std::uint32_t s = 0; s < arr.slices(); s++)
        for (std::uint32_t srv = 0; srv < 100; srv += 17)
            EXPECT_DOUBLE_EQ(arr.serverLoad(s, srv), 0.2);
}

TEST(ClusterArrivals, ImbalanceIsDeterministicAndClamped)
{
    ArrivalSpec spec;
    spec.nominalLoad = 0.5;
    spec.slices = 3;
    spec.imbalance = 1.5; // violent: forces both clamps into play
    ClusterArrivals a(spec, 500);
    ClusterArrivals b(spec, 500);
    bool spread = false;
    for (std::uint32_t s = 0; s < a.slices(); s++)
        for (std::uint32_t srv = 0; srv < 500; srv++) {
            double la = a.serverLoad(s, srv);
            EXPECT_DOUBLE_EQ(la, b.serverLoad(s, srv));
            EXPECT_GE(la, ClusterArrivals::kMinLoad);
            EXPECT_LE(la, ClusterArrivals::kMaxLoad);
            if (la != spec.nominalLoad)
                spread = true;
        }
    EXPECT_TRUE(spread);
}

TEST(ClusterArrivals, ProfileShapesSliceLoads)
{
    ArrivalSpec spec;
    spec.nominalLoad = 0.4;
    spec.slices = 8;
    spec.profile.kind = LoadProfileKind::Diurnal;
    spec.profile.amplitude = 0.5;
    spec.profile.periods = 1.0;
    ClusterArrivals arr(spec, 10);
    double lo = 1e9, hi = 0;
    for (std::uint32_t s = 0; s < arr.slices(); s++) {
        double l = arr.serverLoad(s, 0);
        lo = std::min(lo, l);
        hi = std::max(hi, l);
    }
    // +/-50% around nominal, quantized to slice midpoints.
    EXPECT_LT(lo, 0.3);
    EXPECT_GT(hi, 0.5);
}

TEST(ClusterArrivals, ClusterRequestRateScalesWithInstances)
{
    ArrivalSpec spec;
    spec.nominalLoad = 0.2;
    ClusterArrivals arr(spec, 10);
    // 1M-cycle mean service at 3.2 GHz and 20% load is 640 req/s
    // per instance.
    double one = arr.clusterRequestRate(1e6, 1.0, 1);
    EXPECT_NEAR(one, 640.0, 1e-9);
    EXPECT_NEAR(arr.clusterRequestRate(1e6, 1.0, 3000), 3000 * one,
                1e-6);
}

TEST(ClusterArrivals, ValidateRejectsNonsense)
{
    FatalTrap trap;
    ArrivalSpec bad;
    bad.users = 0;
    EXPECT_THROW(bad.validate("test"), FatalError);
    bad = ArrivalSpec{};
    bad.nominalLoad = 0.99;
    EXPECT_THROW(bad.validate("test"), FatalError);
    bad = ArrivalSpec{};
    bad.slices = 0;
    EXPECT_THROW(bad.validate("test"), FatalError);
    bad = ArrivalSpec{};
    bad.imbalance = -0.1;
    EXPECT_THROW(bad.validate("test"), FatalError);
    ArrivalSpec good;
    EXPECT_NO_THROW(good.validate("test"));
}

} // namespace
} // namespace ubik
