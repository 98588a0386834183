/**
 * @file
 * Tests for the gem5-style logging/error helpers.
 */

#include <gtest/gtest.h>

#include "common/log.h"

namespace ubik {
namespace {

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "boom 42");
}

TEST(LogDeath, FatalExitsWithCode1)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

TEST(LogDeath, AssertFailureMentionsCondition)
{
    EXPECT_DEATH(ubik_assert(1 == 2), "1 == 2");
}

TEST(Log, AssertPassesSilently)
{
    ubik_assert(2 + 2 == 4); // must not abort
    SUCCEED();
}

} // namespace
} // namespace ubik
