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
 * The caller picks the worker count, usually ExperimentConfig::jobs
 * (--jobs or UBIK_JOBS): 0 = all cores, 1 = the legacy sequential
 * path on the calling thread.
 *
 * run() first serves cache hits, then fills the misses in two
 * rounds of tasks: every baseline the misses need, then the missed
 * jobs. Locally (the default) each round runs through the JobPool
 * once. As a fleet worker (ExperimentConfig::fleet), N independent
 * processes sharing one cache directory partition the rounds between
 * them by leasing claim records (sim/claim_store.h). Every task is
 * filled either by computing it under an owned lease (publishing the
 * result to the shared cache before release) or by observing a peer's
 * published result. Results are pure functions of their descriptors
 * and round-trip bit-exactly, so the filled matrix is identical to
 * the single-process one at any fleet size, and a worker killed
 * mid-sweep costs at most its in-flight jobs (whose leases expire and
 * are reclaimed).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
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
};

/**
 * The distinct LC and batch baselines a list of jobs needs, each
 * under its canonical cache key (lcBaselineKey, batchBaselineKey):
 * what ParallelSweep computes or claims before the mixes, and what
 * `ubik_run --fleet-status` probes.
 */
struct SweepBaselines
{
    struct Lc
    {
        LcAppParams params;
        double load = 0;
        std::uint64_t seed = 1;
    };

    struct Batch
    {
        BatchAppParams params;
        std::uint64_t seed = 1;
    };

    std::map<std::string, Lc> lc;
    std::map<std::string, Batch> batch;

    /** Add the baselines `job` needs; one already listed stays. */
    void add(const ExperimentConfig &cfg, bool out_of_order,
             const SweepJob &job);
};

/** Sweep progress snapshot handed to the run() callback. */
struct SweepProgress
{
    /** Jobs finished so far (hits + computed + remote). */
    std::size_t done = 0;
    std::size_t total = 0; ///< jobs in the sweep

    /** Of `done`: served from the result cache up front. */
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

/** What the fleet fill degraded through or cleaned up (all 0 outside
 *  fleet mode). */
struct FleetCounters
{
    /** Leases voluntarily released because their heartbeat could not
     *  be written (ClaimStore::hbReleases). */
    std::uint64_t hbReleases = 0;

    /** Fills that fell back to solo execution because the claims
     *  directory was unusable. */
    std::uint64_t soloFallbacks = 0;

    /** Expired leases of crashed peers this worker removed: broken
     *  in the claim loop (ClaimStore::breakStale) or at sweep exit
     *  (ClaimStore::gcStale). Cleanup, not degradation. */
    std::uint64_t reclaimed = 0;

    /** Degradation events: heartbeat releases and solo fallbacks. */
    std::uint64_t degraded() const { return hbReleases + soloFallbacks; }
};

/**
 * Executes SweepJob batches through a shared MixRunner, serving and
 * storing mix results in the runner's cache. Fleet mode, the worker
 * id and the lease TTL are the runner's ExperimentConfig::fleet,
 * workerId and leaseTtlSec. A fleet sweep claims its misses through
 * leases in the runner's cache directory, so N processes sharing it
 * partition one sweep between them; it needs a persistent cache
 * (run() fatals otherwise), which run() switches to durable mode so
 * "claim released" implies "result on disk".
 */
class ParallelSweep
{
  public:
    /**
     * @param runner shared (thread-safe) methodology layer
     * @param workers worker count; 0 = all cores
     */
    explicit ParallelSweep(MixRunner &runner, unsigned workers = 0);

    /** Worker count the engine executes with. */
    unsigned workers() const { return pool_.workers(); }

    /** This worker's name, which also owns its fleet leases: the
     *  config's workerId, else ClaimStore::defaultOwner() (host +
     *  pid) in fleet mode, else "local". */
    const std::string &worker() const { return worker_; }

    /** MixRunner::attachCache on the runner. */
    void attachCache(ResultCache *cache) { runner_.attachCache(cache); }

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

    /** run() over jobs whose mix keys the caller built: keys[i] is
     *  mixResultKey of jobs[i] under the runner's config (what
     *  buildSweepKeys returns for buildSweepJobs' jobs). */
    std::vector<MixRunResult>
    run(const std::vector<SweepJob> &jobs, std::vector<std::string> keys,
        const std::function<void(const SweepProgress &)> &on_done =
            nullptr);

    /** The fleet fill's counters, summed over every run() so far. */
    const FleetCounters &fleetCounters() const { return fleetCounters_; }

  private:
    MixRunner &runner_;
    JobPool pool_;
    std::string worker_;
    FleetCounters fleetCounters_;
};

/**
 * Expand the cross product schemes x mixes x seeds (seed values
 * 1..seeds, matching the legacy sweep loops) into jobs, in the same
 * order the sequential loops ran them.
 */
std::vector<SweepJob>
buildSweepJobs(const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, std::uint32_t seeds);

/**
 * The mix key of every job buildSweepJobs(schemes, mixes, seeds)
 * returns, in its order: mixResultKey's bytes, joined from each mix's
 * and each scheme's key part, each part built once.
 */
std::vector<std::string>
buildSweepKeys(const ExperimentConfig &cfg, bool out_of_order,
               const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, std::uint32_t seeds);

} // namespace ubik
