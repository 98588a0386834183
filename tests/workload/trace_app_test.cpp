/**
 * @file
 * Tests for TraceApp (the trace-backed workload wrapper) and batch
 * trace replay: loading through the streaming reader, content-hash
 * identity across encodings and load paths, and BatchApp's looping
 * replay with per-instance address salting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "workload/batch_app.h"
#include "workload/trace_app.h"
#include "workload/trace_capture.h"
#include "common/rng.h"

namespace ubik {
namespace {

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

TEST(TraceApp, LoadMatchesFromData)
{
    LcAppParams p = lc_presets::specjbb().scaled(16.0);
    TraceData td = captureLcTrace(p, 40, /*seed=*/11);
    std::string path = tmpPath("app.ubtr");
    writeTrace(td, path);

    auto fromFile = TraceApp::load(path);
    auto fromMem = TraceApp::fromData(std::make_shared<TraceData>(td));

    EXPECT_EQ(fromFile->contentHash(), fromMem->contentHash());
    EXPECT_EQ(fromFile->requests(), td.requests());
    EXPECT_EQ(fromFile->accesses(), td.accesses.size());
    EXPECT_EQ(fromFile->data()->accesses, td.accesses);
    EXPECT_NEAR(fromFile->apki(), td.apki(), 1e-12);
}

TEST(TraceApp, ContentHashSurvivesReencoding)
{
    LcAppParams p = lc_presets::xapian().scaled(16.0);
    TraceData td = captureLcTrace(p, 30, /*seed=*/2);
    std::string v1 = tmpPath("enc.v1.ubtr");
    std::string v2 = tmpPath("enc.v2.ubtr");
    writeTrace(td, v1, TraceWriterOptions{1, 64 << 10});
    writeTrace(td, v2, TraceWriterOptions{2, 512});
    EXPECT_EQ(TraceApp::load(v1)->contentHash(),
              TraceApp::load(v2)->contentHash());
    EXPECT_EQ(TraceApp::load(v1)->contentHash(), traceContentHash(td));
}

TEST(TraceAppDeath, RejectsEmptyTrace)
{
    EXPECT_DEATH(TraceApp::fromData(std::make_shared<TraceData>()),
                 "no requests");
}

TEST(BatchAppReplay, InstanceZeroReplaysVerbatimAndLoops)
{
    BatchAppParams p =
        batch_presets::make(BatchClass::Friendly, 0).scaled(16.0);
    auto trace = std::make_shared<TraceData>(
        captureBatchTrace(p, 100, /*seed=*/5));

    BatchApp app(p, /*instance=*/0, Rng(42));
    app.bindTrace(trace);
    EXPECT_TRUE(app.replaying());
    // Two full passes: the stream loops without request structure.
    for (int pass = 0; pass < 2; pass++)
        for (std::size_t i = 0; i < trace->accesses.size(); i++)
            ASSERT_EQ(app.nextAddr(), trace->accesses[i])
                << "pass " << pass << " access " << i;
}

TEST(BatchAppReplay, LaterInstancesAreSalted)
{
    BatchAppParams p =
        batch_presets::make(BatchClass::Streaming, 0).scaled(16.0);
    auto trace = std::make_shared<TraceData>(
        captureBatchTrace(p, 50, /*seed=*/5));
    BatchApp app(p, /*instance=*/3, Rng(42));
    app.bindTrace(trace);
    EXPECT_EQ(app.nextAddr(),
              trace->accesses[0] + (static_cast<Addr>(3) << 40));
}

TEST(BatchAppReplayDeath, RejectsTraceWithoutAccesses)
{
    auto empty = std::make_shared<TraceData>();
    empty->requestWork.push_back(10.0);
    empty->requestStart.push_back(0);
    BatchAppParams p = batch_presets::make(BatchClass::Friendly, 0);
    BatchApp app(p, 0, Rng(1));
    EXPECT_DEATH(app.bindTrace(empty), "no accesses");
}

} // namespace
} // namespace ubik
