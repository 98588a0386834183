#include "sim/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/log.h"
#include "common/parse_num.h"
#include "sim/job_pool.h"
#include "sim/result_cache.h"

namespace ubik {

namespace {

/**
 * Read numeric environment variable `name` into `field`, which keeps
 * its default when the variable is unset or empty. The field's type
 * bounds the value, or `max` when it is lower: a 32-bit count takes
 * at most 2^32-1 and a double must be finite. Malformed input is
 * fatal and names the variable, so "3x" cannot run 3 mixes,
 * 4294967297 seeds cannot truncate to 1 and "nan" cannot slip past a
 * range check.
 */
template <typename T>
void
readEnv(const char *name, T &field, std::uint64_t max = ~0ull)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return;
    if constexpr (std::is_floating_point_v<T>) {
        if (!parseFiniteStrict(v, field))
            fatal("%s='%s' is not a finite number", name, v);
    } else {
        if constexpr (!std::is_same_v<T, bool>)
            max = std::min<std::uint64_t>(
                max, std::numeric_limits<T>::max());
        std::uint64_t n = 0;
        if (!parseU64Strict(v, max, n))
            fatal("%s='%s' is not a non-negative integer within "
                  "[0, %llu]",
                  name, v, static_cast<unsigned long long>(max));
        field = static_cast<T>(n);
    }
}

std::uint64_t
scaleLines(std::uint64_t full, double scale)
{
    auto lines = static_cast<std::uint64_t>(
        static_cast<double>(full) / scale);
    lines -= lines % 64; // keep divisible by any array geometry
    return lines ? lines : 64;
}

} // namespace

ExperimentConfig
ExperimentConfig::fromEnv()
{
    ExperimentConfig cfg;
    readEnv("UBIK_SCALE", cfg.scale);
    if (cfg.scale < 1.0)
        fatal("UBIK_SCALE must be >= 1 (got %f)", cfg.scale);
    readEnv("UBIK_REQUESTS", cfg.roiRequests);
    readEnv("UBIK_WARMUP", cfg.warmupRequests);
    readEnv("UBIK_SEEDS", cfg.seeds);
    readEnv("UBIK_MIXES", cfg.mixesPerLc);
    // A zero count would run nothing, forever, or everything: no
    // seeds, a request stream that never ends its ROI, or (mixes)
    // buildMixes' "all 40".
    if (cfg.roiRequests == 0)
        fatal("UBIK_REQUESTS must be >= 1");
    if (cfg.seeds == 0)
        fatal("UBIK_SEEDS must be >= 1");
    if (cfg.mixesPerLc == 0)
        fatal("UBIK_MIXES must be >= 1");
    readEnv("UBIK_JOBS", cfg.jobs, kMaxJobs);
    if (const char *dir = std::getenv("UBIK_CACHE_DIR"))
        cfg.cacheDir = dir;
    return cfg;
}

void
ExperimentConfig::applyShardSpec(const std::string &spec)
{
    auto slash = spec.find('/');
    std::uint64_t idx = 0, cnt = 0;
    if (slash == std::string::npos ||
        !parseU64Strict(spec.substr(0, slash).c_str(), 0xFFFFFFFFull,
                        idx) ||
        !parseU64Strict(spec.substr(slash + 1).c_str(), 0xFFFFFFFFull,
                        cnt) ||
        cnt == 0 || idx >= cnt)
        fatal("--shard='%s' is not a shard spec i/n with 0 <= i < n "
              "(e.g. 0/4)",
              spec.c_str());
    shardIndex = static_cast<std::uint32_t>(idx);
    shardCount = static_cast<std::uint32_t>(cnt);
}

unsigned
ExperimentConfig::effectiveJobs() const
{
    return JobPool::workerCount(jobs);
}

std::uint64_t
ExperimentConfig::llcLines() const
{
    return scaleLines(bytesToLines(12_MB), scale);
}

std::uint64_t
ExperimentConfig::privateLines() const
{
    return scaleLines(bytesToLines(2_MB), scale);
}

std::uint64_t
ExperimentConfig::llc8MbLines() const
{
    return scaleLines(bytesToLines(8_MB), scale);
}

Cycles
ExperimentConfig::reconfigInterval() const
{
    return static_cast<Cycles>(
        static_cast<double>(msToCycles(50)) / scale);
}

CmpConfig
ExperimentConfig::baseCmpConfig(bool out_of_order) const
{
    CmpConfig cfg;
    cfg.core.outOfOrder = out_of_order;
    cfg.llcLines = llcLines();
    cfg.privateLinesPerCore = privateLines();
    cfg.reconfigInterval = reconfigInterval();
    return cfg;
}

void
ExperimentConfig::printHeader(const char *bench_name) const
{
    std::printf("## %s\n", bench_name);
    std::printf("# machine: 6-core CMP, shared LLC %.2f MB (%s scale "
                "1:%.0f of the paper's 12MB), private baseline %.2f "
                "MB, reconfig %.2f ms\n",
                static_cast<double>(llcLines() * kLineBytes) / (1 << 20),
                scale == 1.0 ? "full" : "reduced", scale,
                static_cast<double>(privateLines() * kLineBytes) /
                    (1 << 20),
                cyclesToMs(reconfigInterval()));
    std::printf("# experiment: %llu ROI + %llu warmup requests/LC "
                "instance, %u seed(s), %u batch mixes per LC config, "
                "%u engine worker(s)\n",
                static_cast<unsigned long long>(roiRequests),
                static_cast<unsigned long long>(warmupRequests),
                seeds, mixesPerLc, effectiveJobs());
    if (!cacheDir.empty())
        std::printf("# result cache: %s (schema v%u)\n",
                    cacheDir.c_str(), kResultCacheSchemaVersion);
    std::printf("# paper-scale run: UBIK_SCALE=1 UBIK_REQUESTS=6000 "
                "UBIK_MIXES=40 UBIK_SEEDS=8\n");
}

} // namespace ubik
