/**
 * @file
 * Failpoint subsystem: schedule grammar, trigger semantics, seeded
 * replayability, canonical round-trips, and fail-fast diagnostics on
 * malformed schedules.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

#include "common/failpoint.h"

using namespace ubik;

namespace {

class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpointReset(); }
    void TearDown() override { failpointReset(); }
};

/** Firing pattern of `site` over `n` evaluations, as a bitstring. */
std::string
firePattern(const char *site, int n)
{
    std::string out;
    for (int i = 0; i < n; i++)
        out += failpointEval(site) ? '1' : '0';
    return out;
}

TEST_F(FailpointTest, DisarmedByDefault)
{
    EXPECT_FALSE(failpointsArmed());
    EXPECT_FALSE(failpointEval("cache.append"));
    EXPECT_TRUE(failpointScheduleString().empty());
    EXPECT_TRUE(failpointStats().empty());
}

TEST_F(FailpointTest, NthTriggerFiresExactlyOnce)
{
    failpointConfigure("cache.append=err@3");
    EXPECT_TRUE(failpointsArmed());
    EXPECT_EQ(firePattern("cache.append", 6), "001000");
    // An unconfigured site never fires while others are armed.
    EXPECT_FALSE(failpointEval("cache.open"));
}

TEST_F(FailpointTest, ErrDefaultsToEio)
{
    failpointConfigure("cache.append=err@1");
    FailpointHit hit = failpointEval("cache.append");
    ASSERT_EQ(hit.kind, FailpointHit::Kind::Err);
    EXPECT_EQ(hit.err, EIO);
}

TEST_F(FailpointTest, ErrnoByNameAndNumber)
{
    failpointConfigure("cache.open=err:ENOSPC@1;cache.append=err:ENOENT@1;"
                       "cache.fsync=err:13@1");
    EXPECT_EQ(failpointEval("cache.open").err, ENOSPC);
    EXPECT_EQ(failpointEval("cache.append").err, ENOENT);
    EXPECT_EQ(failpointEval("cache.fsync").err, 13);
}

TEST_F(FailpointTest, FromTriggerFiresOnward)
{
    failpointConfigure("claim.create=err@3+");
    EXPECT_EQ(firePattern("claim.create", 6), "001111");
}

TEST_F(FailpointTest, EveryTrigger)
{
    failpointConfigure("claim.create=err@*");
    EXPECT_EQ(firePattern("claim.create", 4), "1111");
}

TEST_F(FailpointTest, ShortWriteCarriesByteCount)
{
    failpointConfigure("cache.append=short_write:7@1");
    FailpointHit hit = failpointEval("cache.append");
    ASSERT_EQ(hit.kind, FailpointHit::Kind::ShortWrite);
    EXPECT_EQ(hit.arg, 7u);
    // Default byte count is 1 (minimal progress, maximal retries).
    failpointConfigure("cache.append=short_write@1");
    EXPECT_EQ(failpointEval("cache.append").arg, 1u);
}

TEST_F(FailpointTest, TornCarriesByteCount)
{
    failpointConfigure("cache.append=torn:5@1");
    FailpointHit hit = failpointEval("cache.append");
    ASSERT_EQ(hit.kind, FailpointHit::Kind::Torn);
    EXPECT_EQ(hit.arg, 5u);
}

TEST_F(FailpointTest, HangSleepsAndProceeds)
{
    failpointConfigure("claim.heartbeat=hang:0.01s@1");
    FailpointHit hit = failpointEval("claim.heartbeat");
    ASSERT_EQ(hit.kind, FailpointHit::Kind::Hang);
    EXPECT_DOUBLE_EQ(hit.hangSec, 0.01);
    // @1: the second evaluation is clean.
    EXPECT_FALSE(failpointEval("claim.heartbeat"));
}

TEST_F(FailpointTest, ChanceTriggerReplaysIdentically)
{
    const char *sched = "claim.create=err@p0.3,seed42";
    failpointConfigure(sched);
    std::string first = firePattern("claim.create", 500);
    failpointConfigure(sched); // counters and Rng reset
    EXPECT_EQ(firePattern("claim.create", 500), first);
    // A fair draw actually fires sometimes and skips sometimes.
    EXPECT_NE(first.find('1'), std::string::npos);
    EXPECT_NE(first.find('0'), std::string::npos);
    // A different seed draws a different pattern.
    failpointConfigure("claim.create=err@p0.3,seed43");
    EXPECT_NE(firePattern("claim.create", 500), first);
}

TEST_F(FailpointTest, ChanceStreamsArePerSite)
{
    failpointConfigure(
        "claim.create=err@p0.5,seed7;claim.release=err@p0.5,seed7");
    std::string pa = firePattern("claim.create", 200);
    std::string pb = firePattern("claim.release", 200);
    // Same seed, different sites: independent streams.
    EXPECT_NE(pa, pb);
}

TEST_F(FailpointTest, ScheduleStringRoundTrips)
{
    failpointConfigure(
        "cache.append=short_write:9@2;claim.create=err:EIO@p0.05,"
        "seed7;claim.heartbeat=hang:2s@1");
    std::string canon = failpointScheduleString();
    failpointConfigure(canon);
    EXPECT_EQ(failpointScheduleString(), canon);
    // Canonical form spells out defaults.
    EXPECT_NE(canon.find("claim.create=err:EIO@p0.05,seed7"),
              std::string::npos);
    EXPECT_NE(canon.find("cache.append=short_write:9@2"),
              std::string::npos);
    // Numbers echo in shortest round-trip form, every digit kept.
    failpointConfigure("cache.append=err@p0.1234567,seed1");
    EXPECT_EQ(failpointScheduleString(),
              "cache.append=err:EIO@p0.1234567,seed1");
    failpointConfigure("claim.heartbeat=hang:1.0000001s@1");
    EXPECT_EQ(failpointScheduleString(),
              "claim.heartbeat=hang:1.0000001s@1");
}

TEST_F(FailpointTest, RandomScheduleIsDeterministic)
{
    failpointConfigure("random:1234");
    std::string a = failpointScheduleString();
    EXPECT_FALSE(a.empty());
    failpointConfigure("random:1234");
    EXPECT_EQ(failpointScheduleString(), a);
    failpointConfigure("random:1235");
    EXPECT_NE(failpointScheduleString(), a);
    // The expansion replays verbatim as a plain schedule.
    failpointConfigure(a);
    EXPECT_EQ(failpointScheduleString(), a);
}

TEST_F(FailpointTest, RandomSchedulesNeverArmTraceSites)
{
    // Trace sites are fail-fast by contract; a random chaos schedule
    // arming them would turn the nightly loop into a crash lottery.
    for (std::uint64_t seed = 0; seed < 50; seed++) {
        failpointConfigure("random:" + std::to_string(seed));
        EXPECT_EQ(failpointScheduleString().find("trace."),
                  std::string::npos)
            << "seed " << seed;
    }
}

TEST_F(FailpointTest, StatsCountEvalsAndFires)
{
    failpointConfigure("claim.create=err@2");
    firePattern("claim.create", 5);
    std::vector<FailpointSiteStats> st = failpointStats();
    ASSERT_EQ(st.size(), 1u);
    EXPECT_EQ(st[0].site, "claim.create");
    EXPECT_EQ(st[0].evals, 5u);
    EXPECT_EQ(st[0].fires, 1u);
}

TEST_F(FailpointTest, ResetDisarms)
{
    failpointConfigure("claim.create=err@*");
    EXPECT_TRUE(failpointEval("claim.create"));
    failpointReset();
    EXPECT_FALSE(failpointsArmed());
    EXPECT_FALSE(failpointEval("claim.create"));
}

using FailpointDeathTest = FailpointTest;

TEST_F(FailpointDeathTest, MalformedSchedulesDieWithTheEntry)
{
    EXPECT_DEATH(failpointConfigure("nonsense"),
                 "expected <site>=<action>@<trigger>");
    EXPECT_DEATH(failpointConfigure("cache.append=err"),
                 "missing @<trigger>");
    EXPECT_DEATH(failpointConfigure("cache.append=explode@1"),
                 "unknown action 'explode'");
    EXPECT_DEATH(failpointConfigure("cache.append=err:EWHAT@1"),
                 "unknown errno 'EWHAT'");
    EXPECT_DEATH(failpointConfigure("cache.append=err@0"),
                 "bad trigger");
    EXPECT_DEATH(failpointConfigure("cache.append=err@p1.5"),
                 "not in \\[0, 1\\]");
    EXPECT_DEATH(failpointConfigure("cache.append=hang:2@1"),
                 "hang needs a duration");
    EXPECT_DEATH(
        failpointConfigure("cache.append=err@1;cache.append=err@2"),
        "configured twice");
    // A misspelled site would arm nothing and let a chaos gate pass
    // without a single fault.
    EXPECT_DEATH(failpointConfigure("cache.apend=err@*"),
                 "failpoint 'cache.apend=err@\\*': unknown site "
                 "'cache.apend'");
}

TEST_F(FailpointDeathTest, ArmedEvaluationOfAnUnlistedSiteAsserts)
{
    failpointConfigure("cache.append=err@*");
    EXPECT_DEATH(failpointEval("cache.apend"), "knownSite");
}

} // namespace
