/**
 * @file
 * Cross-module property tests: invariants that must hold for every
 * (policy, scheme, array, workload) combination the evaluation
 * exercises. These are the guard rails behind the figure benches —
 * conservation of cache space, partition-size accounting, ROI
 * accounting, and policy-independent determinism.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/vantage.h"
#include "sim/cmp.h"
#include "workload/lc_app.h"
#include "workload/mix.h"

namespace ubik {
namespace {

struct RunSetup
{
    PolicyKind policy;
    SchemeKind scheme;
    ArrayKind array;
    const char *lcApp;
    BatchClass batchClass;
};

class FullStackInvariants : public ::testing::TestWithParam<RunSetup>
{
  protected:
    CmpConfig cfg_;
    std::unique_ptr<Cmp> cmp_;

    void
    SetUp() override
    {
        const RunSetup &s = GetParam();
        cfg_.llcLines = 24576;
        cfg_.privateLinesPerCore = 4096;
        cfg_.reconfigInterval = 2000000;
        cfg_.policy = s.policy;
        cfg_.scheme = s.scheme;
        cfg_.array = s.array;
        cfg_.ubik.slack = s.policy == PolicyKind::Ubik ? 0.05 : 0.0;

        LcAppSpec lc;
        lc.params = lc_presets::byName(s.lcApp).scaled(8.0);
        lc.meanInterarrival = 350000;
        lc.roiRequests = 30;
        lc.warmupRequests = 8;
        lc.targetLines = 4096;
        lc.deadline = 250000;
        BatchAppSpec b1, b2;
        b1.params =
            batch_presets::make(s.batchClass, 1).scaled(8.0);
        b2.params =
            batch_presets::make(BatchClass::Friendly, 5).scaled(8.0);
        cmp_ = std::make_unique<Cmp>(cfg_, std::vector{lc, lc},
                                     std::vector{b1, b2}, 77);
        cmp_->run();
    }
};

TEST_P(FullStackInvariants, EveryLcInstanceCompletesItsRoi)
{
    for (std::uint32_t i = 0; i < 2; i++) {
        EXPECT_EQ(cmp_->lcResult(i).latencies.count(), 30u);
        EXPECT_GT(cmp_->lcResult(i).roiEndCycle, 0u);
    }
}

TEST_P(FullStackInvariants, ResidencyNeverExceedsCapacity)
{
    PartitionScheme &s = cmp_->scheme();
    std::uint64_t resident = 0;
    for (std::uint64_t slot = 0; slot < s.array().numLines(); slot++)
        resident += s.array().validAt(slot) ? 1 : 0;
    EXPECT_LE(resident, s.array().numLines());
    // Per-partition actual sizes must sum to exactly the residents.
    std::uint64_t sum = 0;
    for (PartId p = 0; p < s.numPartitions(); p++)
        sum += s.actualSize(p);
    EXPECT_EQ(sum, resident);
}

TEST_P(FullStackInvariants, OwnerCountsSumToResidency)
{
    PartitionScheme &s = cmp_->scheme();
    std::uint64_t resident = 0;
    for (std::uint64_t slot = 0; slot < s.array().numLines(); slot++)
        resident += s.array().validAt(slot) ? 1 : 0;
    std::uint64_t owners = 0;
    for (AppId a = 0; a < s.numPartitions(); a++)
        owners += s.ownerLines(a);
    EXPECT_EQ(owners, resident);
}

TEST_P(FullStackInvariants, AccessAccountingConsistent)
{
    PartitionScheme &s = cmp_->scheme();
    std::uint64_t acc = 0, miss = 0;
    for (PartId p = 0; p < s.numPartitions(); p++) {
        acc += s.accesses(p);
        miss += s.misses(p);
        EXPECT_LE(s.misses(p), s.accesses(p));
    }
    std::uint64_t app_acc = 0, app_miss = 0;
    for (std::uint32_t i = 0; i < 2; i++) {
        app_acc += cmp_->lcResult(i).accesses;
        app_miss += cmp_->lcResult(i).misses;
    }
    for (std::uint32_t i = 0; i < 2; i++) {
        app_acc += cmp_->batchResult(i).accesses;
        app_miss += cmp_->batchResult(i).misses;
    }
    EXPECT_EQ(acc, app_acc);
    EXPECT_EQ(miss, app_miss);
}

TEST_P(FullStackInvariants, LatenciesAreAtLeastServiceTimes)
{
    for (std::uint32_t i = 0; i < 2; i++) {
        const LcResult &r = cmp_->lcResult(i);
        EXPECT_GE(r.latencies.mean(), r.serviceTimes.mean());
        EXPECT_GE(r.latencies.tailMean(95.0),
                  r.serviceTimes.mean());
    }
}

TEST_P(FullStackInvariants, BatchMakesForwardProgress)
{
    for (std::uint32_t i = 0; i < 2; i++) {
        EXPECT_GT(cmp_->batchResult(i).ipc(), 0.01);
        EXPECT_LT(cmp_->batchResult(i).ipc(), 2.0);
    }
}

TEST_P(FullStackInvariants, DeterministicReplay)
{
    const RunSetup &s = GetParam();
    CmpConfig cfg = cfg_;
    LcAppSpec lc;
    lc.params = lc_presets::byName(s.lcApp).scaled(8.0);
    lc.meanInterarrival = 350000;
    lc.roiRequests = 30;
    lc.warmupRequests = 8;
    lc.targetLines = 4096;
    lc.deadline = 250000;
    BatchAppSpec b1, b2;
    b1.params = batch_presets::make(s.batchClass, 1).scaled(8.0);
    b2.params = batch_presets::make(BatchClass::Friendly, 5).scaled(8.0);
    Cmp replay(cfg, {lc, lc}, {b1, b2}, 77);
    replay.run();
    EXPECT_EQ(replay.now(), cmp_->now());
    for (std::uint32_t i = 0; i < 2; i++)
        EXPECT_DOUBLE_EQ(replay.lcResult(i).latencies.mean(),
                         cmp_->lcResult(i).latencies.mean());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FullStackInvariants,
    ::testing::Values(
        RunSetup{PolicyKind::Lru, SchemeKind::SharedLru,
                 ArrayKind::Z4_52, "specjbb", BatchClass::Streaming},
        RunSetup{PolicyKind::Ucp, SchemeKind::Vantage,
                 ArrayKind::Z4_52, "masstree", BatchClass::Friendly},
        RunSetup{PolicyKind::OnOff, SchemeKind::Vantage,
                 ArrayKind::Z4_52, "shore", BatchClass::Fitting},
        RunSetup{PolicyKind::StaticLc, SchemeKind::Vantage,
                 ArrayKind::SA64, "xapian", BatchClass::Insensitive},
        RunSetup{PolicyKind::Ubik, SchemeKind::Vantage,
                 ArrayKind::Z4_52, "specjbb", BatchClass::Streaming},
        RunSetup{PolicyKind::Ubik, SchemeKind::Vantage,
                 ArrayKind::SA16, "moses", BatchClass::Friendly},
        RunSetup{PolicyKind::Ubik, SchemeKind::WayPart,
                 ArrayKind::SA16, "specjbb", BatchClass::Friendly},
        RunSetup{PolicyKind::Ubik, SchemeKind::WayPart,
                 ArrayKind::SA64, "masstree", BatchClass::Fitting}));

/** Vantage-specific guarantee, checked through a whole Cmp run. */
TEST(VantageEndToEnd, ZCacheKeepsGuaranteeViolationsNegligible)
{
    CmpConfig cfg;
    cfg.llcLines = 24576;
    cfg.privateLinesPerCore = 4096;
    cfg.reconfigInterval = 2000000;
    cfg.policy = PolicyKind::Ubik;
    cfg.ubik.slack = 0.05;
    LcAppSpec lc;
    lc.params = lc_presets::specjbb().scaled(8.0);
    lc.meanInterarrival = 350000;
    lc.roiRequests = 40;
    lc.warmupRequests = 10;
    lc.targetLines = 4096;
    lc.deadline = 250000;
    BatchAppSpec b;
    b.params = batch_presets::make(BatchClass::Streaming, 3).scaled(8.0);
    Cmp cmp(cfg, {lc, lc}, {b, b}, 5);
    cmp.run();
    auto &v = dynamic_cast<Vantage &>(cmp.scheme());
    double total_acc = 0;
    for (PartId p = 0; p < v.numPartitions(); p++)
        total_acc += static_cast<double>(v.accesses(p));
    EXPECT_LT(static_cast<double>(v.underTargetEvictions()),
              0.002 * total_acc);
}

} // namespace
} // namespace ubik
