/**
 * @file
 * Tests for the mix builder reproducing the paper's 400-mix
 * methodology (§6).
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/mix.h"

namespace ubik {
namespace {

TEST(MixBuilder, TwentyClassCombos)
{
    auto combos = batchClassCombos();
    EXPECT_EQ(combos.size(), 20u);
    // Order-insensitive with repetition: each triple is sorted, and
    // all are distinct.
    std::set<std::string> seen;
    for (const auto &c : combos) {
        std::string key = {*enumName(c[0]), *enumName(c[1]),
                           *enumName(c[2])};
        EXPECT_TRUE(seen.insert(key).second) << "duplicate " << key;
    }
}

TEST(MixBuilder, FortyBatchMixes)
{
    auto mixes = buildBatchMixes(2, 1);
    EXPECT_EQ(mixes.size(), 40u);
    std::set<std::string> names;
    for (const auto &m : mixes)
        EXPECT_TRUE(names.insert(m.name).second);
}

TEST(MixBuilder, MixNameEncodesClasses)
{
    auto mixes = buildBatchMixes(2, 1);
    for (const auto &m : mixes) {
        ASSERT_EQ(m.name.size(), 5u); // "nft-0"
        for (int i = 0; i < 3; i++)
            EXPECT_EQ(m.name[i], *enumName(m.apps[i].cls));
    }
}

TEST(MixBuilder, TenLcConfigs)
{
    auto cfgs = buildLcConfigs();
    ASSERT_EQ(cfgs.size(), 10u);
    for (std::size_t i = 0; i < cfgs.size(); i += 2) {
        EXPECT_DOUBLE_EQ(cfgs[i].load, 0.2);
        EXPECT_DOUBLE_EQ(cfgs[i + 1].load, 0.6);
        EXPECT_EQ(cfgs[i].app.name, cfgs[i + 1].app.name);
    }
}

TEST(MixBuilder, FourHundredMixesAtPaperScale)
{
    auto mixes = buildMixes(2, 1, 0);
    EXPECT_EQ(mixes.size(), 400u);
}

TEST(MixBuilder, CapKeepsComboCoverage)
{
    auto mixes = buildMixes(2, 1, 10);
    EXPECT_EQ(mixes.size(), 100u); // 10 LC configs x 10 batch mixes
    // The strided subset still spans several class combinations.
    std::set<std::string> combos;
    for (const auto &m : mixes)
        combos.insert(m.batch.name.substr(0, 3));
    EXPECT_GE(combos.size(), 5u);
}

TEST(MixBuilder, DeterministicForSeed)
{
    auto a = buildBatchMixes(2, 7);
    auto b = buildBatchMixes(2, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].name, b[i].name);
        for (int j = 0; j < 3; j++)
            EXPECT_EQ(a[i].apps[j].name, b[i].apps[j].name);
    }
}

TEST(MixBuilder, MixNamesIncludeLoadTag)
{
    auto mixes = buildMixes(1, 1, 2);
    bool saw_lo = false, saw_hi = false;
    for (const auto &m : mixes) {
        saw_lo |= m.name.find("-lo/") != std::string::npos;
        saw_hi |= m.name.find("-hi/") != std::string::npos;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

} // namespace
} // namespace ubik
