/**
 * @file
 * ExperimentConfig::fromEnv reads every numeric UBIK_* variable
 * strictly: trailing garbage, a negative count, a count past its
 * field's width (or, for UBIK_JOBS, past kMaxJobs), a zero count that
 * must be at least 1, or a non-finite number is fatal and names the
 * variable, instead of running a silently different experiment.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "sim/experiment.h"
#include "sim/job_pool.h"

namespace ubik {
namespace {

/** Run fromEnv() with `name`=`value` set; death tests call this in
 *  the forked child, so the parent's environment stays clean. */
void
fromEnvWith(const char *name, const char *value)
{
    setenv(name, value, 1);
    ExperimentConfig::fromEnv();
}

TEST(ExperimentConfigEnv, MalformedValuesAreFatalAndNamed)
{
    const struct
    {
        const char *name;
        const char *value;
    } cases[] = {
        {"UBIK_SEEDS", "4294967297"},  // truncated to 1 seed
        {"UBIK_MIXES", "4294967296"},  // truncated to 0 mixes
        {"UBIK_MIXES", "3x"},          // ran 3 mixes
        {"UBIK_REQUESTS", "20abc"},    // ran 20 requests
        {"UBIK_WARMUP", "-5"},         // wrapped to 2^64-5
        {"UBIK_JOBS", "3x"},
        {"UBIK_JOBS", "1025"},         // past kMaxJobs threads
        {"UBIK_SCALE", "nan"},         // passed the < 1 check
        {"UBIK_SCALE", "inf"},
        {"UBIK_SCALE", "16x"},
        {"UBIK_SCALE", "0.5"},
        {"UBIK_SEEDS", "0"},           // empty runs; fleet panicked
        {"UBIK_REQUESTS", "0"},        // ran to the max-cycles cap
        {"UBIK_MIXES", "0"},           // all 40 mixes, past any cap
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(c.name) + "=" + c.value);
        EXPECT_EXIT(fromEnvWith(c.name, c.value),
                    testing::ExitedWithCode(1), c.name);
    }
}

TEST(ExperimentConfigEnv, WellFormedValuesParse)
{
    setenv("UBIK_SEEDS", "4294967295", 1);
    setenv("UBIK_REQUESTS", "18446744073709551615", 1);
    setenv("UBIK_SCALE", "16", 1);
    setenv("UBIK_JOBS", "1024", 1);
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    for (const char *v :
         {"UBIK_SEEDS", "UBIK_REQUESTS", "UBIK_SCALE", "UBIK_JOBS"})
        unsetenv(v);
    EXPECT_EQ(cfg.seeds, UINT32_MAX);
    EXPECT_EQ(cfg.roiRequests, UINT64_MAX);
    EXPECT_EQ(cfg.scale, 16.0);
    EXPECT_EQ(cfg.jobs, kMaxJobs);

    // Unset and empty variables keep the defaults.
    setenv("UBIK_MIXES", "", 1);
    ExperimentConfig dflt = ExperimentConfig::fromEnv();
    unsetenv("UBIK_MIXES");
    EXPECT_EQ(dflt.mixesPerLc, ExperimentConfig{}.mixesPerLc);
    EXPECT_EQ(dflt.seeds, ExperimentConfig{}.seeds);
}

} // namespace
} // namespace ubik
