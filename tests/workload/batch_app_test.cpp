/**
 * @file
 * Tests for the four batch-class generators and their miss-curve
 * taxonomy (insensitive / friendly / fitting / streaming).
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/batch_app.h"

namespace ubik {
namespace {

TEST(BatchClass, CodesRoundTrip)
{
    for (BatchClass c :
         {BatchClass::Insensitive, BatchClass::Friendly,
          BatchClass::Fitting, BatchClass::Streaming})
        EXPECT_EQ(enumFromName<BatchClass>(enumName(c)), c);
    EXPECT_EQ(*enumName(BatchClass::Insensitive), 'n');
    EXPECT_EQ(*enumName(BatchClass::Friendly), 'f');
    EXPECT_EQ(*enumName(BatchClass::Fitting), 't');
    EXPECT_EQ(*enumName(BatchClass::Streaming), 's');
}

TEST(BatchClassDeath, UnknownCodeIsFatal)
{
    EXPECT_EXIT(enumFromName<BatchClass>("x"),
                ::testing::ExitedWithCode(1), "unknown batch class");
}

TEST(BatchPresets, NamesEncodeClassAndVariation)
{
    auto p = batch_presets::make(BatchClass::Friendly, 7);
    EXPECT_EQ(p.name, "f7");
    EXPECT_EQ(p.cls, BatchClass::Friendly);
}

TEST(BatchPresets, VariationsSpreadParameters)
{
    auto a = batch_presets::make(BatchClass::Friendly, 0);
    auto b = batch_presets::make(BatchClass::Friendly, 24);
    EXPECT_NE(a.apki, b.apki);
    EXPECT_NE(a.wsLines, b.wsLines);
}

TEST(BatchPresets, ClassFootprintsOrdered)
{
    // Insensitive << fitting < friendly working sets; streaming is
    // effectively unbounded.
    auto n = batch_presets::make(BatchClass::Insensitive, 12);
    auto f = batch_presets::make(BatchClass::Friendly, 12);
    auto t = batch_presets::make(BatchClass::Fitting, 12);
    auto s = batch_presets::make(BatchClass::Streaming, 12);
    EXPECT_LT(n.wsLines, t.wsLines);
    EXPECT_LT(t.wsLines, f.wsLines);
    EXPECT_GT(s.wsLines, f.wsLines);
}

TEST(BatchAppParams, ScaledShrinksFootprint)
{
    auto p = batch_presets::make(BatchClass::Friendly, 3);
    auto s = p.scaled(8.0);
    EXPECT_EQ(s.wsLines, p.wsLines / 8);
    EXPECT_DOUBLE_EQ(s.apki, p.apki);
}

TEST(BatchApp, StreamingNeverRepeats)
{
    BatchApp app(batch_presets::make(BatchClass::Streaming, 0), 0,
                 Rng(1));
    std::set<Addr> seen;
    for (int i = 0; i < 50000; i++)
        EXPECT_TRUE(seen.insert(app.nextAddr()).second);
}

TEST(BatchApp, FittingScansCircularly)
{
    auto p = batch_presets::make(BatchClass::Fitting, 12);
    p.wsLines = 1000;
    BatchApp app(p, 0, Rng(2));
    Addr first = app.nextAddr();
    for (std::uint64_t i = 1; i < p.wsLines; i++)
        app.nextAddr();
    // Exactly wsLines later the scan wraps to the same address.
    EXPECT_EQ(app.nextAddr(), first);
}

TEST(BatchApp, FittingCoversWholeSet)
{
    auto p = batch_presets::make(BatchClass::Fitting, 12);
    p.wsLines = 500;
    BatchApp app(p, 0, Rng(3));
    std::set<Addr> seen;
    for (std::uint64_t i = 0; i < p.wsLines; i++)
        seen.insert(app.nextAddr());
    EXPECT_EQ(seen.size(), p.wsLines);
}

TEST(BatchApp, FriendlyStaysInWorkingSet)
{
    auto p = batch_presets::make(BatchClass::Friendly, 5);
    BatchApp app(p, 2, Rng(4));
    const Addr base = static_cast<Addr>(2 + 64) << 40;
    for (int i = 0; i < 20000; i++) {
        Addr a = app.nextAddr();
        EXPECT_GE(a, base);
        EXPECT_LT(a, base + p.wsLines);
    }
}

TEST(BatchApp, InsensitiveReusesHeavily)
{
    auto p = batch_presets::make(BatchClass::Insensitive, 5);
    BatchApp app(p, 0, Rng(5));
    std::set<Addr> seen;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        seen.insert(app.nextAddr());
    // Tiny footprint: far fewer distinct lines than accesses.
    EXPECT_LT(seen.size(), static_cast<std::size_t>(n / 3));
    EXPECT_LE(seen.size(), p.wsLines);
}

TEST(BatchApp, InstancesDisjoint)
{
    auto p = batch_presets::make(BatchClass::Friendly, 1);
    BatchApp a(p, 0, Rng(6)), b(p, 1, Rng(6));
    std::set<Addr> seen;
    for (int i = 0; i < 10000; i++)
        seen.insert(a.nextAddr());
    for (int i = 0; i < 10000; i++)
        EXPECT_FALSE(seen.count(b.nextAddr()));
}

class AllClasses : public ::testing::TestWithParam<BatchClass>
{
};

TEST_P(AllClasses, GeneratorIsDeterministic)
{
    auto p = batch_presets::make(GetParam(), 9);
    BatchApp a(p, 0, Rng(7)), b(p, 0, Rng(7));
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.nextAddr(), b.nextAddr());
}

INSTANTIATE_TEST_SUITE_P(
    Classes, AllClasses,
    ::testing::Values(BatchClass::Insensitive, BatchClass::Friendly,
                      BatchClass::Fitting, BatchClass::Streaming));

} // namespace
} // namespace ubik
