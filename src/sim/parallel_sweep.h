/**
 * @file
 * Parallel experiment engine: execute a vector of independent run
 * descriptors (scheme x mix x load x seed) across all cores.
 *
 * The engine is deterministic by construction. Every descriptor names
 * its own seed, every job draws randomness only from that seed (jobs
 * needing a whole generator can split one off with Rng::jobStream),
 * and every result lands in the slot
 * indexed by its descriptor, so the output vector is bit-identical to
 * a sequential execution regardless of worker count or scheduling
 * order. Baselines are pre-warmed in a parallel phase of their own:
 * they too are pure functions of (app, load, seed), so concurrent
 * computation cannot change their values — pre-warming only removes
 * redundant work from the mix phase.
 *
 * Worker count comes from the UBIK_JOBS environment variable (default
 * all cores; 1 recovers the legacy sequential path on the calling
 * thread).
 *
 * run() first serves cache hits, then fills the misses one of two
 * ways:
 *
 *  - locally (the default): prewarm the misses' baselines, then one
 *    JobPool task per missed job;
 *  - as a fleet worker (enableFleet): N independent processes sharing
 *    one cache directory partition the misses between them by leasing
 *    claim records (sim/claim_store.h). Every job is filled either by
 *    computing it under an owned lease (publishing the result to the
 *    shared cache before release) or by observing a peer's published
 *    result. Results are pure functions of their descriptors and
 *    round-trip bit-exactly, so the filled matrix is identical to the
 *    single-process one at any fleet size, and a worker killed
 *    mid-sweep costs at most its in-flight jobs (whose leases expire
 *    and are reclaimed).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/job_pool.h"
#include "sim/mix_runner.h"

namespace ubik {

/** One independent experiment: a mix under a scheme with a seed. */
struct SweepJob
{
    MixSpec mix;
    SchemeUnderTest sut;
    std::uint64_t seed = 1;

    /** Caller cookie (e.g. index into a scheme table); the engine
     *  never interprets it. */
    std::uint64_t tag = 0;
};

/** Sweep progress snapshot handed to the run() callback. */
struct SweepProgress
{
    /** Jobs finished so far (hits + computed + remote). */
    std::size_t done = 0;
    std::size_t total = 0; ///< jobs in the sweep

    /** Of `done`: served from the persistent result cache up front. */
    std::size_t hits = 0;

    /** Of `done`: actually simulated this run. */
    std::size_t computed = 0;

    /** Of `done`: published mid-sweep by a fleet peer sharing the
     *  cache directory (always 0 outside fleet mode). */
    std::size_t remote = 0;

    /** Wall-clock seconds since run() started (prewarm included);
     *  purely informational — never part of any result. */
    double elapsedSec = 0;
};

/** Fleet-mode knobs (ParallelSweep::enableFleet). */
struct FleetOptions
{
    /** Lease owner identity; empty defers to ClaimStore::defaultOwner
     *  (host + pid). Distinct per cooperating process. */
    std::string workerId;

    /** Lease age beyond which a worker is presumed dead and its
     *  in-flight jobs are reclaimed by peers. */
    double leaseTtlSec = 60.0;
};

/** Executes SweepJob batches through a shared MixRunner. */
class ParallelSweep
{
  public:
    /**
     * @param runner shared (thread-safe) methodology layer
     * @param workers worker count; 0 defers to UBIK_JOBS / all cores
     */
    explicit ParallelSweep(MixRunner &runner, unsigned workers = 0);

    /** Worker count the engine executes with. */
    unsigned workers() const { return pool_.workers(); }

    /**
     * Serve cache hits from `cache` (not owned; null detaches) before
     * submitting jobs, and store computed results back. Values
     * round-trip bit-exactly, so a warm sweep equals the cold one.
     * Attach the same cache to the runner (MixRunner::attachCache) to
     * persist baselines too.
     */
    void attachCache(ResultCache *cache) { cache_ = cache; }

    /**
     * Fleet mode: fill cache misses by claiming them through leases
     * in the attached cache directory, so N processes sharing it
     * partition one sweep between them. Requires an attached cache
     * (run() fatals otherwise), which run() switches to durable mode
     * so "claim released" implies "result on disk". Results stay
     * bit-identical to the single-process path.
     */
    void enableFleet(const FleetOptions &opt);

    /**
     * Run every job and return results in job order. Results are
     * bit-identical across worker counts, across cache states (cold,
     * warm, or mixed), and across fleet sizes. If `on_done` is set it
     * is called once after the cache-hit scan (when any job hit) and
     * then once per filled job; deliveries are serialized under a
     * mutex with monotonically increasing `done`, so a stateful
     * callback needs no locking of its own.
     */
    std::vector<MixRunResult>
    run(const std::vector<SweepJob> &jobs,
        const std::function<void(const SweepProgress &)> &on_done =
            nullptr);

  private:
    MixRunner &runner_;
    JobPool pool_;
    ResultCache *cache_ = nullptr; ///< optional persistent store
    bool fleet_ = false;
    FleetOptions fleetOpt_;
};

/**
 * Expand the cross product schemes x mixes x seeds (seed values
 * 1..seeds, matching the legacy sweep loops) into jobs tagged with
 * their scheme index, in the same order the sequential loops ran them.
 */
std::vector<SweepJob>
buildSweepJobs(const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, std::uint32_t seeds);

} // namespace ubik
