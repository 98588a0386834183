/**
 * @file
 * Tests for the report layer: load-band filtering on structured mix
 * metadata, the empty-sweep quantile guard (the legacy
 * `v.size() - 1` underflow), and determinism of the structured JSON
 * export (bit-identical results => byte-identical files).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "report/report.h"

namespace ubik {
namespace {

MixRunResult
run(double tail, double ws)
{
    MixRunResult r;
    r.lcTailMean = tail * 1000.0;
    r.tailDegradation = tail;
    r.meanDegradation = tail * 0.9;
    r.weightedSpeedup = ws;
    r.batchSpeedups = {ws - 0.1, ws, ws + 0.1};
    return r;
}

SweepResult
sweep(const std::string &label)
{
    SweepResult s;
    s.label = label;
    s.runs = {run(1.1, 1.3), run(2.0, 1.1), run(1.0, 1.5)};
    s.mixNames = {"xapian-lo/nft-0", "xapian-hi/nft-0",
                  "moses-lo/fts-1"};
    s.mixLoads = {0.2, 0.6, 0.2};
    s.seeds = {1, 1, 1};
    return s;
}

TEST(Report, FilterByLoadUsesMixMetadata)
{
    std::vector<SweepResult> sweeps = {sweep("Ubik")};
    auto low = filterByLoad(sweeps, LoadBand::Low);
    ASSERT_EQ(low.size(), 1u);
    ASSERT_EQ(low[0].runs.size(), 2u);
    EXPECT_EQ(low[0].mixNames[0], "xapian-lo/nft-0");
    EXPECT_EQ(low[0].mixNames[1], "moses-lo/fts-1");

    auto high = filterByLoad(sweeps, LoadBand::High);
    ASSERT_EQ(high[0].runs.size(), 1u);
    EXPECT_EQ(high[0].mixNames[0], "xapian-hi/nft-0");

    auto all = filterByLoad(sweeps, LoadBand::All);
    EXPECT_EQ(all[0].runs.size(), 3u);

    LoadBand b;
    EXPECT_TRUE(tryEnumFromName("low", b));
    EXPECT_EQ(b, LoadBand::Low);
    EXPECT_FALSE(tryEnumFromName("lowest", b));
    EXPECT_STREQ(enumName(LoadBand::High), "high");
}

TEST(Report, EmptySweepsPrintWithoutUnderflow)
{
    // A scheme with zero runs used to compute v.size() - 1 == SIZE_MAX
    // when indexing quantiles. The printers must survive (and print
    // zero rows) for empty sweeps — e.g. a load band that filtered
    // everything out.
    SweepResult empty;
    empty.label = "none";
    std::vector<SweepResult> sweeps = {empty};
    printDistributions(sweeps, "empty-test");
    printAverages(sweeps, "empty-test");
    printPerApp(sweeps, "empty-test");
    printUbikInterrupts(sweeps, "empty-test");
    SUCCEED();
}

TEST(Report, ResultsJsonIsDeterministicAndParseable)
{
    std::vector<SweepResult> sweeps = {sweep("Ubik"), sweep("LRU")};
    std::string p1 = ::testing::TempDir() + "/r1.json";
    std::string p2 = ::testing::TempDir() + "/r2.json";
    writeJsonFile(resultsToJson(sweeps, "unit"), p1);
    writeJsonFile(resultsToJson(sweeps, "unit"), p2);

    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string t1 = slurp(p1);
    EXPECT_EQ(t1, slurp(p2)) << "same results, different bytes";

    Json j = Json::parseOrDie(t1, "results");
    EXPECT_EQ(j.find("format")->str(), "ubik-results");
    EXPECT_EQ(j.find("scenario")->str(), "unit");
    const Json &s0 = j.find("sweeps")->at(0);
    EXPECT_EQ(s0.find("scheme")->str(), "Ubik");
    const Json &r0 = s0.find("runs")->at(0);
    EXPECT_EQ(r0.find("mix")->str(), "xapian-lo/nft-0");
    EXPECT_DOUBLE_EQ(r0.find("tail_degradation")->number(), 1.1);
    EXPECT_EQ(r0.find("batch_speedups")->size(), 3u);

    // A perturbed result changes the bytes (the diff is meaningful).
    sweeps[0].runs[0].weightedSpeedup += 1e-12;
    writeJsonFile(resultsToJson(sweeps, "unit"), p2);
    EXPECT_NE(t1, slurp(p2));

    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

} // namespace
} // namespace ubik
