#include "sim/parallel_sweep.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "common/log.h"
#include "sim/claim_store.h"
#include "sim/result_cache.h"

namespace ubik {

namespace {

/** A job the cache could not serve: its index into the job vector and
 *  its canonical cache key (empty when no cache is attached). */
struct Miss
{
    std::size_t job = 0;
    std::string key;
};

/** How a missed job got filled, for progress accounting. */
enum class Fill
{
    Computed, ///< simulated by this process
    Remote,   ///< published to the shared cache by a fleet peer
};

/** Called exactly once per missed job, from any worker thread. */
using Notify = std::function<void(Fill)>;

/** Fleet poll backoff while peers hold the remaining leases: starts
 *  at kPollSec, doubles to kPollMaxSec while nothing changes. */
constexpr double kPollSec = 0.05;
constexpr double kPollMaxSec = 1.0;

/** Deduplicated baseline descriptors for a set of missed jobs, keyed
 *  so the dedup cannot drift from what the mix phase will request. */
struct LcDesc
{
    LcAppParams params;
    double load = 0;
    std::uint64_t seed = 1;
};

struct BatchDesc
{
    BatchAppParams params;
    std::uint64_t seed = 1;
};

void
collectBaselines(MixRunner &runner, const std::vector<SweepJob> &jobs,
                 const std::vector<Miss> &misses,
                 std::map<std::string, LcDesc> &lc,
                 std::map<std::string, BatchDesc> &batch)
{
    for (const Miss &m : misses) {
        const SweepJob &job = jobs[m.job];
        lc.emplace(
            runner.lcKey(job.mix.lc.app, job.mix.lc.load, job.seed),
            LcDesc{job.mix.lc.app, job.mix.lc.load, job.seed});
        for (const auto &b : job.mix.batch.apps)
            batch.emplace(runner.batchKey(b, job.seed),
                          BatchDesc{b, job.seed});
    }
}

/**
 * The in-process fill: compute every LC and batch baseline the misses
 * need in one parallel phase, so the mix phase hits only warm caches,
 * then one JobPool task per miss.
 */
void
fillLocal(MixRunner &runner, JobPool &pool, ResultCache *cache,
          const std::vector<SweepJob> &jobs,
          const std::vector<Miss> &misses,
          std::vector<MixRunResult> &results, const Notify &notify)
{
    std::map<std::string, LcDesc> lcKeys;
    std::map<std::string, BatchDesc> batchKeys;
    collectBaselines(runner, jobs, misses, lcKeys, batchKeys);
    std::vector<LcDesc> lc;
    for (auto &kv : lcKeys)
        lc.push_back(std::move(kv.second));
    std::vector<BatchDesc> batch;
    for (auto &kv : batchKeys)
        batch.push_back(std::move(kv.second));

    // LC baselines are the expensive ones (two calibration runs
    // each), so schedule them first.
    pool.run(lc.size() + batch.size(), [&](std::size_t i) {
        if (i < lc.size())
            runner.lcBaseline(lc[i].params, lc[i].load, lc[i].seed);
        else
            runner.batchAloneIpc(batch[i - lc.size()].params,
                                 batch[i - lc.size()].seed);
    });

    pool.run(misses.size(), [&](std::size_t k) {
        const Miss &m = misses[k];
        const SweepJob &job = jobs[m.job];
        results[m.job] = runner.runMix(job.mix, job.sut, job.seed);
        if (cache)
            cache->storeMix(m.key, results[m.job]);
        notify(Fill::Computed);
    });
}

/**
 * The work-claiming fill over a shared cache directory.
 *
 * Two claim-loop rounds: baselines first (so no worker recomputes a
 * baseline a peer already owns), then mixes. Each round repeatedly
 * offers every unfilled item to the pool; a worker polls the shared
 * cache, tries to lease the item, re-polls under the lease (the
 * previous owner may have published between poll and claim), and only
 * then computes. Leases of crashed peers are broken once they exceed
 * the TTL. A heartbeat thread refreshes owned leases so a live worker
 * never looks dead, however long one simulation takes.
 *
 * Degradation: claims only deduplicate work, so if the claims
 * directory is (or becomes) unusable, the worker falls back to solo
 * execution of its remaining items — poll the shared cache once, then
 * compute — instead of dying. The sweep still completes with
 * identical results; only cross-worker dedup is lost.
 */
class FleetFill
{
  public:
    FleetFill(MixRunner &runner, JobPool &pool, ResultCache &cache,
              const FleetOptions &opt)
        : runner_(runner), pool_(pool), cache_(cache),
          claims_(cache.dir(),
                  opt.workerId.empty() ? ClaimStore::defaultOwner()
                                       : opt.workerId,
                  opt.leaseTtlSec)
    {
    }

    void fill(const std::vector<SweepJob> &jobs,
              const std::vector<Miss> &misses,
              std::vector<MixRunResult> &results, const Notify &notify);

  private:
    /** One leasable unit of work: poll() returns true when the item
     *  no longer needs computing (and performs any slot fill /
     *  notification itself); compute() produces and publishes it. */
    struct ClaimTask
    {
        std::string key;
        std::function<void()> compute;
        std::function<bool()> poll;
    };

    void runClaimLoop(std::vector<ClaimTask> &tasks);

    /** Fill the pending tasks without claims (poll once, then
     *  compute): the degraded path when the claims dir is unusable. */
    void runSolo(std::vector<ClaimTask> &tasks,
                 const std::vector<std::size_t> &pending);

    MixRunner &runner_;
    JobPool &pool_;
    ResultCache &cache_;
    ClaimStore claims_;
    bool soloNoted_ = false; ///< count the fallback once per worker
};

void
FleetFill::runSolo(std::vector<ClaimTask> &tasks,
                   const std::vector<std::size_t> &pending)
{
    if (!soloNoted_) {
        soloNoted_ = true;
        cache_.noteSoloFallback();
        warn("fleet: claims directory unusable; degrading to solo "
             "execution of %zu remaining items (results unchanged, "
             "cross-worker dedup lost)",
             pending.size());
    }
    // Poll once (a peer may have published already), then compute.
    // No leases: peers may duplicate our work, but every duplicate is
    // an identical deterministic value, so the merged matrix is
    // unchanged.
    pool_.run(pending.size(), [&](std::size_t k) {
        ClaimTask &t = tasks[pending[k]];
        if (!t.poll())
            t.compute();
    });
}

void
FleetFill::runClaimLoop(std::vector<ClaimTask> &tasks)
{
    std::vector<std::size_t> pending(tasks.size());
    std::iota(pending.begin(), pending.end(), std::size_t{0});
    double backoff = kPollSec;
    while (!pending.empty()) {
        if (!claims_.usable()) {
            runSolo(tasks, pending);
            return;
        }
        std::vector<char> finished(pending.size(), 0);
        pool_.run(pending.size(), [&](std::size_t k) {
            ClaimTask &t = tasks[pending[k]];
            if (t.poll()) {
                finished[k] = 1;
                return;
            }
            if (!claims_.tryAcquire(t.key))
                return; // a peer owns it; revisit next round
            // Re-poll under the lease: the previous owner may have
            // published and released between our poll and acquire —
            // without this, that window is a duplicate computation.
            if (t.poll()) {
                claims_.release(t.key);
                finished[k] = 1;
                return;
            }
            t.compute();
            claims_.release(t.key);
            finished[k] = 1;
        });

        std::vector<std::size_t> next;
        for (std::size_t k = 0; k < pending.size(); k++)
            if (!finished[k])
                next.push_back(pending[k]);
        bool moved = next.size() < pending.size();
        pending.swap(next);
        if (pending.empty())
            break;

        // Everything left is leased by a peer. Break leases whose
        // owner stopped heartbeating; a broken (or vanished) lease is
        // immediately claimable, so skip the wait.
        bool claimable = false;
        for (std::size_t i : pending)
            claimable = claims_.breakStale(tasks[i].key) || claimable;
        if (claimable)
            continue;
        if (moved)
            backoff = kPollSec;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * 2.0, kPollMaxSec);
    }
}

void
FleetFill::fill(const std::vector<SweepJob> &jobs,
                const std::vector<Miss> &misses,
                std::vector<MixRunResult> &results,
                const Notify &notify)
{
    // Heartbeat thread: refresh every owned lease well inside the
    // TTL, so a live worker never looks dead no matter how long one
    // simulation takes.
    std::mutex hbMu;
    std::condition_variable hbCv;
    bool hbStop = false;
    const double hbPeriod = std::max(0.5, claims_.ttlSec() / 4.0);
    std::thread hb([&] {
        std::unique_lock<std::mutex> lock(hbMu);
        while (!hbCv.wait_for(lock,
                              std::chrono::duration<double>(hbPeriod),
                              [&] { return hbStop; }))
            claims_.heartbeatAll();
    });

    // Round 1: baselines, as leasable units of their own — otherwise
    // every worker would recompute the full baseline set before its
    // first mix. poll() is a presence probe against the shared cache;
    // compute() publishes through the runner's attached cache.
    std::map<std::string, LcDesc> lcKeys;
    std::map<std::string, BatchDesc> batchKeys;
    collectBaselines(runner_, jobs, misses, lcKeys, batchKeys);

    std::vector<ClaimTask> tasks;
    tasks.reserve(lcKeys.size() + batchKeys.size());
    for (auto &kv : lcKeys) {
        LcDesc d = kv.second;
        std::string pkey =
            lcBaselineKey(runner_.config(), d.params, d.load, d.seed,
                          runner_.outOfOrder());
        tasks.push_back(ClaimTask{
            pkey,
            [this, d] { runner_.lcBaseline(d.params, d.load, d.seed); },
            [this, pkey] { return cache_.hasLcBaseline(pkey); }});
    }
    for (auto &kv : batchKeys) {
        BatchDesc d = kv.second;
        std::string pkey = batchBaselineKey(
            runner_.config(), d.params, d.seed, runner_.outOfOrder());
        tasks.push_back(ClaimTask{
            pkey,
            [this, d] { runner_.batchAloneIpc(d.params, d.seed); },
            [this, pkey] { return cache_.hasBatchIpc(pkey); }});
    }
    runClaimLoop(tasks);

    // Round 2: the mixes themselves. poll() fills the slot from a
    // peer's published result; compute() simulates and publishes
    // (storeMix fsyncs in durable mode, so release-after-store means
    // the record survives any crash).
    std::vector<ClaimTask> mixTasks;
    mixTasks.reserve(misses.size());
    for (const Miss &m : misses) {
        const Miss *p = &m;
        mixTasks.push_back(ClaimTask{
            p->key,
            [this, p, &jobs, &results, &notify] {
                const SweepJob &job = jobs[p->job];
                results[p->job] =
                    runner_.runMix(job.mix, job.sut, job.seed);
                cache_.storeMix(p->key, results[p->job]);
                notify(Fill::Computed);
            },
            [this, p, &results, &notify] {
                auto r = cache_.peekMix(p->key);
                if (!r)
                    return false;
                results[p->job] = std::move(*r);
                notify(Fill::Remote);
                return true;
            }});
    }
    runClaimLoop(mixTasks);

    {
        std::lock_guard<std::mutex> lock(hbMu);
        hbStop = true;
    }
    hbCv.notify_all();
    hb.join();

    // Sweep-exit GC: reclaim expired leases crashed peers left behind
    // (ours were all released above). Fold heartbeat-failure releases
    // into the degradation accounting now that the heartbeat thread
    // is quiesced.
    cache_.noteHbReleases(claims_.hbReleases());
    if (claims_.usable())
        cache_.noteClaimsGced(claims_.gcStale());
}

} // namespace

ParallelSweep::ParallelSweep(MixRunner &runner, unsigned workers)
    : runner_(runner), pool_(JobPool::resolveWorkers(workers))
{
}

void
ParallelSweep::enableFleet(const FleetOptions &opt)
{
    fleet_ = true;
    fleetOpt_ = opt;
}

std::vector<MixRunResult>
ParallelSweep::run(
    const std::vector<SweepJob> &jobs,
    const std::function<void(const SweepProgress &)> &on_done)
{
    std::vector<MixRunResult> results(jobs.size());

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [t0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    if (fleet_) {
        if (!cache_)
            fatal("fleet sweep needs a result cache: pass --cache-dir "
                  "(or UBIK_CACHE_DIR) alongside --fleet");
        // Claim release must imply "result on disk" for peers (and
        // for crash recovery), so records are fsync'd before release.
        cache_->setDurable(true);
    }

    // Lookup-before-submit: hits fill their result slots directly and
    // drop out of the sweep; only misses are executed (and their
    // baselines prewarmed), so a fully warm run performs zero mix
    // recomputation.
    std::vector<Miss> misses;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < jobs.size(); i++) {
        std::string key;
        if (cache_) {
            key = mixResultKey(runner_.config(), jobs[i].mix,
                               jobs[i].sut, jobs[i].seed,
                               runner_.outOfOrder());
            if (auto cached = cache_->loadMix(key)) {
                results[i] = std::move(*cached);
                hits++;
                continue;
            }
        }
        misses.push_back(Miss{i, std::move(key)});
    }
    if (on_done && hits > 0)
        on_done({hits, jobs.size(), hits, 0, 0, elapsed()});
    if (misses.empty())
        return results;

    // Serialized progress delivery: fills notify from worker threads,
    // the mutex makes deliveries atomic and `done` strictly
    // monotonic, so stateful callbacks need no locking of their own.
    std::mutex progressMu;
    std::size_t computed = 0;
    std::size_t remote = 0;
    auto notify = [&](Fill fill) {
        std::lock_guard<std::mutex> lock(progressMu);
        if (fill == Fill::Remote)
            remote++;
        else
            computed++;
        if (on_done)
            on_done({hits + computed + remote, jobs.size(), hits,
                     computed, remote, elapsed()});
    };

    if (fleet_)
        FleetFill(runner_, pool_, *cache_, fleetOpt_)
            .fill(jobs, misses, results, notify);
    else
        fillLocal(runner_, pool_, cache_, jobs, misses, results,
                  notify);
    return results;
}

std::vector<SweepJob>
buildSweepJobs(const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, std::uint32_t seeds)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(schemes.size() * mixes.size() * seeds);
    for (std::size_t si = 0; si < schemes.size(); si++)
        for (const auto &mix : mixes)
            for (std::uint32_t s = 0; s < seeds; s++) {
                SweepJob job;
                job.mix = mix;
                job.sut = schemes[si];
                job.seed = s + 1;
                job.tag = si;
                jobs.push_back(std::move(job));
            }
    return jobs;
}

} // namespace ubik
