/**
 * @file
 * Experiment-level configuration and machine scaling.
 *
 * The paper's evaluation (400 mixes, 10^15 instructions) is far
 * beyond an offline reproduction budget, so benches default to a
 * scaled machine: all capacities, working sets, request work, and
 * timer intervals shrink by UBIK_SCALE (default 8), which preserves
 * the ratios partitioning behaviour depends on (working set :
 * partition size, transient length : request length). Environment
 * variables restore paper-scale runs:
 *
 *   UBIK_SCALE    machine scale divisor (1 = paper scale; default 8)
 *   UBIK_REQUESTS ROI requests per LC instance (default 100)
 *   UBIK_WARMUP   warmup requests per LC instance (default 25)
 *   UBIK_SEEDS    repeated runs per configuration (default 1)
 *   UBIK_MIXES    batch mixes per LC config (default 3; 40 = paper)
 *   UBIK_JOBS     experiment-engine workers (default 0 = all cores;
 *                 1 = legacy sequential path)
 *   UBIK_VERBOSE  1 = chatty progress output
 *   UBIK_CSV_DIR  directory for per-run CSV exports (sweep benches)
 *   UBIK_CACHE_DIR persistent result cache directory (unset = no
 *                 caching; see sim/result_cache.h)
 *   UBIK_FLEET    1 = cooperate with other processes sharing
 *                 UBIK_CACHE_DIR via work-claiming leases (see
 *                 sim/parallel_sweep.h); requires a cache dir
 *   UBIK_WORKER_ID fleet worker identity (default: host + pid)
 *   UBIK_LEASE_TTL fleet claim lease TTL, seconds (default 60); a
 *                 worker silent this long is presumed dead and its
 *                 claimed work reclaimed
 *   UBIK_SHARD    "i/n": run only every n-th selected mix, offset i
 *                 (splits one matrix across CI jobs; results land
 *                 under the same cache keys as the unsharded sweep)
 */

#pragma once

#include <cstdint>
#include <string>

#include "sim/cmp.h"
#include "common/types.h"

namespace ubik {

/** Scaled experiment configuration, read once from the environment. */
struct ExperimentConfig
{
    double scale = 8.0;
    std::uint64_t roiRequests = 100;
    std::uint64_t warmupRequests = 25;
    std::uint32_t seeds = 1;
    std::uint32_t mixesPerLc = 3;

    /** Experiment-engine worker threads: 0 = all cores, 1 = the
     *  legacy sequential path (see sim/job_pool.h). */
    std::uint32_t jobs = 0;

    bool verbose = false;

    /** Persistent result cache directory (UBIK_CACHE_DIR; empty =
     *  caching disabled). Never part of a result's cache key. */
    std::string cacheDir;

    /** Fleet mode: cooperate with other processes sharing `cacheDir`
     *  through work-claiming lease records (sim/claim_store.h).
     *  Requires a cache dir; results stay bit-identical to a
     *  single-process run. */
    bool fleet = false;

    /** Fleet worker identity (empty = derive from host + pid). Only
     *  used for lease ownership/debugging; never part of any key. */
    std::string workerId;

    /** Fleet claim lease TTL, seconds: how long a worker may go
     *  silent before its claims are presumed orphaned and reclaimed
     *  by a peer. */
    double leaseTtlSec = 60.0;

    /** Mix sharding: of the selected mixes, run only those with
     *  index % shardCount == shardIndex (0/1 = all). Pure selection —
     *  cache keys are unchanged, so n shards with a shared (or later
     *  merged) cache fill the same matrix one process would. */
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;

    /** `jobs` with 0 resolved to the actual core count. */
    unsigned effectiveJobs() const;

    /** Shared LLC capacity, lines (paper: 12MB). */
    std::uint64_t llcLines() const;

    /** Private / target LLC capacity, lines (paper: 2MB). */
    std::uint64_t privateLines() const;

    /** 8MB-equivalent capacity (Fig 2b). */
    std::uint64_t llc8MbLines() const;

    /** Reconfiguration interval, cycles (paper: 50ms). */
    Cycles reconfigInterval() const;

    /** Build from environment variables (see file comment). */
    static ExperimentConfig fromEnv();

    /**
     * Parse an "i/n" shard spec (e.g. "0/4") into
     * shardIndex/shardCount; fatal (naming `what`: the flag or env
     * var the text came from) on malformed input or i >= n.
     */
    void applyShardSpec(const char *what, const std::string &spec);

    /** Base CmpConfig with the machine parameters filled in. */
    CmpConfig baseCmpConfig(bool out_of_order = true) const;

    /** Print the machine + scale header every bench emits. */
    void printHeader(const char *bench_name) const;
};

} // namespace ubik
