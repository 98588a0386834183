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
 *  its canonical cache key. */
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

/** The baselines the missed jobs need. */
SweepBaselines
missedBaselines(const MixRunner &runner, const std::vector<SweepJob> &jobs,
                const std::vector<Miss> &misses)
{
    SweepBaselines base;
    for (const Miss &m : misses)
        base.add(runner.config(), runner.outOfOrder(), jobs[m.job]);
    return base;
}

/**
 * The in-process fill: compute every LC and batch baseline the misses
 * need in one parallel phase, so the mix phase hits only warm caches,
 * then one JobPool task per miss.
 */
void
fillLocal(MixRunner &runner, JobPool &pool,
          const std::vector<SweepJob> &jobs,
          const std::vector<Miss> &misses,
          std::vector<MixRunResult> &results, const Notify &notify)
{
    SweepBaselines base = missedBaselines(runner, jobs, misses);
    std::vector<SweepBaselines::Lc> lc;
    for (auto &kv : base.lc)
        lc.push_back(std::move(kv.second));
    std::vector<SweepBaselines::Batch> batch;
    for (auto &kv : base.batch)
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
        runner.cache().storeMix(m.key, results[m.job]);
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
              const FleetOptions &opt, FleetCounters &counters)
        : runner_(runner), pool_(pool), cache_(cache),
          counters_(counters),
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
    FleetCounters &counters_;
    ClaimStore claims_;
    bool soloNoted_ = false; ///< count the fallback once per worker
};

void
FleetFill::runSolo(std::vector<ClaimTask> &tasks,
                   const std::vector<std::size_t> &pending)
{
    if (!soloNoted_) {
        soloNoted_ = true;
        counters_.soloFallbacks++;
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
        for (std::size_t i : pending) {
            const ClaimStore::Break b = claims_.breakStale(tasks[i].key);
            counters_.reclaimed += b == ClaimStore::Break::Broken;
            claimable = claimable || b != ClaimStore::Break::Live;
        }
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
    // compute() publishes through the runner's cache.
    const SweepBaselines base = missedBaselines(runner_, jobs, misses);

    std::vector<ClaimTask> tasks;
    tasks.reserve(base.lc.size() + base.batch.size());
    for (const auto &[key, d] : base.lc)
        tasks.push_back(ClaimTask{
            key,
            [this, d = d] {
                runner_.lcBaseline(d.params, d.load, d.seed);
            },
            [this, key = key] { return cache_.has(key); }});
    for (const auto &[key, d] : base.batch)
        tasks.push_back(ClaimTask{
            key,
            [this, d = d] { runner_.batchAloneIpc(d.params, d.seed); },
            [this, key = key] { return cache_.has(key); }});
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
    // (ours were all released above). Heartbeat-failure releases are
    // final now that the heartbeat thread is quiesced.
    counters_.hbReleases += claims_.hbReleases();
    if (claims_.usable())
        counters_.reclaimed += claims_.gcStale();
}

} // namespace

void
SweepBaselines::add(const ExperimentConfig &cfg, bool out_of_order,
                    const SweepJob &job)
{
    const LcConfig &l = job.mix.lc;
    lc.emplace(lcBaselineKey(cfg, l.app, l.load, job.seed, out_of_order),
               Lc{l.app, l.load, job.seed});
    for (const BatchAppParams &b : job.mix.batch.apps)
        batch.emplace(batchBaselineKey(cfg, b, job.seed, out_of_order),
                      Batch{b, job.seed});
}

ParallelSweep::ParallelSweep(MixRunner &runner, unsigned workers)
    : runner_(runner), pool_(workers)
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
    std::vector<std::string> keys;
    keys.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        keys.push_back(mixResultKey(runner_.config(), job.mix, job.sut,
                                    job.seed, runner_.outOfOrder()));
    return run(jobs, std::move(keys), on_done);
}

std::vector<MixRunResult>
ParallelSweep::run(
    const std::vector<SweepJob> &jobs, std::vector<std::string> keys,
    const std::function<void(const SweepProgress &)> &on_done)
{
    ubik_assert(keys.size() == jobs.size());
    std::vector<MixRunResult> results(jobs.size());

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [t0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    ResultCache &cache = runner_.cache();
    if (fleet_) {
        if (!cache.persistent())
            fatal("fleet sweep needs a result cache: pass --cache-dir "
                  "(or UBIK_CACHE_DIR) alongside --fleet");
        // Claim release must imply "result on disk" for peers (and
        // for crash recovery), so records are fsync'd before release.
        cache.setDurable(true);
    }

    // Lookup-before-submit: hits fill their result slots directly and
    // drop out of the sweep; only misses are executed (and their
    // baselines prewarmed), so a fully warm run performs zero mix
    // recomputation.
    std::vector<Miss> misses;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (auto cached = cache.loadMix(keys[i])) {
            results[i] = std::move(*cached);
            hits++;
            continue;
        }
        misses.push_back(Miss{i, std::move(keys[i])});
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
        FleetFill(runner_, pool_, cache, fleetOpt_, fleetCounters_)
            .fill(jobs, misses, results, notify);
    else
        fillLocal(runner_, pool_, jobs, misses, results, notify);
    return results;
}

std::vector<SweepJob>
buildSweepJobs(const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, std::uint32_t seeds)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(schemes.size() * mixes.size() * seeds);
    for (const SchemeUnderTest &sut : schemes)
        for (const auto &mix : mixes)
            for (std::uint32_t s = 0; s < seeds; s++)
                jobs.push_back(SweepJob{mix, sut, s + 1});
    return jobs;
}

std::vector<std::string>
buildSweepKeys(const ExperimentConfig &cfg, bool out_of_order,
               const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, std::uint32_t seeds)
{
    const std::string head = mixKeyHead(cfg, out_of_order);
    std::vector<std::string> mixParts;
    mixParts.reserve(mixes.size());
    for (const MixSpec &mix : mixes)
        mixParts.push_back(mixKeyPart(mix));
    std::vector<std::string> keys;
    keys.reserve(schemes.size() * mixes.size() * seeds);
    for (const SchemeUnderTest &sut : schemes) {
        const std::string scheme = schemeKeyPart(sut);
        for (const std::string &mix : mixParts)
            for (std::uint32_t s = 0; s < seeds; s++)
                keys.push_back(joinMixKey(head, mix, scheme, s + 1));
    }
    return keys;
}

} // namespace ubik
