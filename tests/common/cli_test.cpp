/**
 * @file
 * Tests for the command-line flag parser: value forms, types,
 * defaults, and error handling.
 */

#include <gtest/gtest.h>

#include "common/cli.h"

namespace ubik {
namespace {

TEST(Cli, DefaultsSurviveEmptyCommandLine)
{
    Cli cli("t", "test");
    auto &s = cli.flag("name", "dflt", "h");
    auto &i = cli.flag("count", static_cast<std::int64_t>(7), "h");
    auto &d = cli.flag("ratio", 0.5, "h");
    auto &b = cli.flag("fast", false, "h");
    const char *argv[] = {"t"};
    cli.parse(1, argv);
    EXPECT_EQ(s.value, "dflt");
    EXPECT_EQ(i.value, 7);
    EXPECT_DOUBLE_EQ(d.value, 0.5);
    EXPECT_FALSE(b.value);
    EXPECT_FALSE(s.seen);
}

TEST(Cli, ParsesSpaceSeparatedValues)
{
    Cli cli("t", "test");
    auto &s = cli.flag("name", "x", "h");
    auto &i = cli.flag("count", static_cast<std::int64_t>(0), "h");
    auto &d = cli.flag("ratio", 0.0, "h");
    const char *argv[] = {"t",       "--name",  "hello", "--count",
                          "42",      "--ratio", "0.25"};
    cli.parse(7, argv);
    EXPECT_EQ(s.value, "hello");
    EXPECT_TRUE(s.seen);
    EXPECT_EQ(i.value, 42);
    EXPECT_DOUBLE_EQ(d.value, 0.25);
}

TEST(Cli, ParsesEqualsForm)
{
    Cli cli("t", "test");
    auto &s = cli.flag("name", "x", "h");
    auto &d = cli.flag("ratio", 0.0, "h");
    const char *argv[] = {"t", "--name=world", "--ratio=1.5"};
    cli.parse(3, argv);
    EXPECT_EQ(s.value, "world");
    EXPECT_DOUBLE_EQ(d.value, 1.5);
}

TEST(Cli, BoolFlagFormsWork)
{
    {
        Cli cli("t", "test");
        auto &b = cli.flag("fast", false, "h");
        const char *argv[] = {"t", "--fast"};
        cli.parse(2, argv);
        EXPECT_TRUE(b.value);
    }
    {
        Cli cli("t", "test");
        auto &b = cli.flag("fast", true, "h");
        const char *argv[] = {"t", "--fast=false"};
        cli.parse(2, argv);
        EXPECT_FALSE(b.value);
    }
    {
        Cli cli("t", "test");
        auto &b = cli.flag("fast", false, "h");
        const char *argv[] = {"t", "--fast=1"};
        cli.parse(2, argv);
        EXPECT_TRUE(b.value);
    }
}

TEST(Cli, IntegersParseInBaseTenOnly)
{
    Cli cli("t", "test");
    auto &i = cli.flag("count", static_cast<std::int64_t>(0), "h");
    const char *argv[] = {"t", "--count", "-12"};
    cli.parse(3, argv);
    EXPECT_EQ(i.value, -12);

    // Leading zeros are decimal, not octal: `--seeds 010` means ten.
    // (strtoll base 0 read it as octal 8 — the classic footgun.)
    Cli cli2("t", "test");
    auto &j = cli2.flag("count", static_cast<std::int64_t>(0), "h");
    const char *argv2[] = {"t", "--count", "010"};
    cli2.parse(3, argv2);
    EXPECT_EQ(j.value, 10);

    // Hex is no longer silently accepted.
    Cli cli3("t", "test");
    cli3.flag("count", static_cast<std::int64_t>(0), "h");
    const char *argv3[] = {"t", "--count", "0x10"};
    EXPECT_EXIT(cli3.parse(3, argv3), testing::ExitedWithCode(1),
                "not a base-10 integer");
}

TEST(Cli, UnknownFlagIsFatal)
{
    Cli cli("t", "test");
    cli.flag("name", "x", "h");
    const char *argv[] = {"t", "--nmae", "oops"};
    EXPECT_EXIT(cli.parse(3, argv), testing::ExitedWithCode(1),
                "unknown flag");
}

TEST(Cli, MissingValueIsFatal)
{
    Cli cli("t", "test");
    cli.flag("name", "x", "h");
    const char *argv[] = {"t", "--name"};
    EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(1),
                "needs a value");
}

TEST(Cli, BadNumbersAreFatal)
{
    {
        Cli cli("t", "test");
        cli.flag("count", static_cast<std::int64_t>(0), "h");
        const char *argv[] = {"t", "--count", "12abc"};
        EXPECT_EXIT(cli.parse(3, argv), testing::ExitedWithCode(1),
                    "not a base-10 integer");
    }
    {
        Cli cli("t", "test");
        cli.flag("count", static_cast<std::int64_t>(0), "h");
        const char *argv[] = {"t", "--count", "99999999999999999999"};
        EXPECT_EXIT(cli.parse(3, argv), testing::ExitedWithCode(1),
                    "out of range");
    }
    {
        Cli cli("t", "test");
        cli.flag("ratio", 0.0, "h");
        const char *argv[] = {"t", "--ratio", "zero"};
        EXPECT_EXIT(cli.parse(3, argv), testing::ExitedWithCode(1),
                    "not a number");
    }
    {
        Cli cli("t", "test");
        cli.flag("fast", false, "h");
        const char *argv[] = {"t", "--fast=maybe"};
        EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(1),
                    "not a boolean");
    }
}

TEST(Cli, NonFiniteNumbersAreFatal)
{
    for (const char *text : {"nan", "inf", "-inf", "1e999"}) {
        Cli cli("t", "test");
        cli.flag("scale", 8.0, "h");
        const char *argv[] = {"t", "--scale", text};
        EXPECT_EXIT(cli.parse(3, argv), testing::ExitedWithCode(1),
                    "--scale: '.*' is not a number \\(finite values");
    }
}

TEST(Cli, FlagInRangeRejectsWrapAndTruncation)
{
    Cli cli("t", "test");
    auto &jobs = cli.flag("jobs", static_cast<std::int64_t>(0), "h");
    const char *argv[] = {"t", "--jobs", "7"};
    cli.parse(3, argv);
    EXPECT_EQ(flagInRange(jobs, 0, UINT32_MAX), 7u);

    // -1 would wrap through an unsigned cast; 2^32 and 2^32+1 would
    // truncate to 0 and 1 through a 32-bit one.
    for (std::int64_t bad : {std::int64_t{-1}, std::int64_t{4294967296},
                             std::int64_t{4294967297}}) {
        jobs.value = bad;
        EXPECT_EXIT(flagInRange(jobs, 0, UINT32_MAX),
                    testing::ExitedWithCode(1), "--jobs must be in");
    }
    jobs.value = 0;
    EXPECT_EXIT(flagInRange(jobs, 1, UINT32_MAX),
                testing::ExitedWithCode(1), "--jobs must be in \\[1,");
}

TEST(Cli, PositionalArgumentsRejected)
{
    Cli cli("t", "test");
    const char *argv[] = {"t", "stray"};
    EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(1),
                "unexpected argument");
}

TEST(Cli, PositionalArgumentsCollectedWhenAllowed)
{
    Cli cli("t", "test");
    cli.allowPositionals("scenario", "name to run");
    auto &s = cli.flag("name", "x", "h");
    const char *argv[] = {"t", "fig9", "--name", "v", "second"};
    cli.parse(5, argv);
    ASSERT_EQ(cli.positionals().size(), 2u);
    EXPECT_EQ(cli.positionals()[0], "fig9");
    EXPECT_EQ(cli.positionals()[1], "second");
    EXPECT_EQ(s.value, "v");
}

TEST(Cli, MultiFlagAppendsEveryOccurrenceInOrder)
{
    Cli cli("t", "test");
    auto &sets = cli.multiFlag("set", "key=value override");
    {
        const char *argv[] = {"t"};
        cli.parse(1, argv);
        EXPECT_TRUE(sets.value.empty());
        EXPECT_FALSE(sets.seen);
    }
    const char *argv[] = {"t", "--set", "a=1", "--set=b=2", "--set",
                          "a=3"};
    cli.parse(6, argv);
    ASSERT_EQ(sets.value.size(), 3u);
    EXPECT_EQ(sets.value[0], "a=1");
    EXPECT_EQ(sets.value[1], "b=2");
    EXPECT_EQ(sets.value[2], "a=3");
    EXPECT_TRUE(sets.seen);
}

TEST(Cli, DuplicateDeclarationIsFatal)
{
    Cli cli("t", "test");
    cli.flag("name", "x", "h");
    EXPECT_EXIT(cli.flag("name", "y", "h"), testing::ExitedWithCode(1),
                "duplicate");
}

TEST(Cli, HelpExitsZero)
{
    Cli cli("t", "test");
    cli.flag("name", "x", "the name");
    const char *argv[] = {"t", "--help"};
    // The help text goes to stdout; EXPECT_EXIT only matches stderr,
    // so assert the exit code alone.
    EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace ubik
