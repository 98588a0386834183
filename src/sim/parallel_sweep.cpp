#include "sim/parallel_sweep.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
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

/** One unit of fill work under its cache key: compute() produces it
 *  and publishes it to the cache; poll(), which only the fleet fill
 *  calls, returns true when a peer has published it (and performs any
 *  slot fill / notification itself). */
struct FillTask
{
    std::string key;
    std::function<void()> compute;
    std::function<bool()> poll;
};

/** Every fill runs its rounds in order: round 0 before round 1. */
using FillRounds = std::array<std::vector<FillTask>, 2>;

/**
 * The two rounds of a fill: every LC and batch baseline the misses
 * need, LC first (two calibration runs each, the expensive ones), then
 * one task per miss. Baselines go first so that the mix round hits
 * only warm caches and no fleet worker recomputes a baseline a peer
 * already owns. The tasks refer to `jobs`, `misses`, `results` and
 * `notify`, which must outlive them.
 */
FillRounds
fillRounds(MixRunner &runner, const std::vector<SweepJob> &jobs,
           const std::vector<Miss> &misses,
           std::vector<MixRunResult> &results, const Notify &notify)
{
    ResultCache &cache = runner.cache();
    SweepBaselines base;
    for (const Miss &m : misses)
        base.add(runner.config(), runner.outOfOrder(), jobs[m.job]);
    auto published = [&cache](const std::string &key) {
        return [&cache, key] { return cache.has(key); };
    };

    FillRounds rounds;
    for (const auto &[key, d] : base.lc)
        rounds[0].push_back(
            {key,
             [&runner, d = d] {
                 runner.lcBaseline(d.params, d.load, d.seed);
             },
             published(key)});
    for (const auto &[key, d] : base.batch)
        rounds[0].push_back(
            {key,
             [&runner, d = d] { runner.batchAloneIpc(d.params, d.seed); },
             published(key)});
    // A mix's poll fills its slot from a peer's published result. Its
    // compute publishes with storeMix, which fsyncs in durable (fleet)
    // mode, so release-after-store means the record survives any
    // crash.
    for (const Miss &m : misses)
        rounds[1].push_back(
            {m.key,
             [&, p = &m] {
                 const SweepJob &job = jobs[p->job];
                 results[p->job] =
                     runner.runMix(job.mix, job.sut, job.seed);
                 cache.storeMix(p->key, results[p->job]);
                 notify(Fill::Computed);
             },
             [&, p = &m] {
                 auto r = cache.peekMix(p->key);
                 if (!r)
                     return false;
                 results[p->job] = std::move(*r);
                 notify(Fill::Remote);
                 return true;
             }});
    return rounds;
}

/**
 * The work-claiming fill over a shared cache directory.
 *
 * Each round repeatedly offers every unfilled task to the pool; a
 * worker polls the shared cache, tries to lease the task, re-polls
 * under the lease (the previous owner may have published between
 * poll and claim), and only then computes. Leases of crashed peers
 * are broken once they exceed the TTL. A heartbeat thread refreshes
 * owned leases so a live worker never looks dead, however long one
 * simulation takes.
 *
 * Degradation: claims only deduplicate work, so if the claims
 * directory is (or becomes) unusable, the worker falls back to solo
 * execution of its remaining tasks — poll the shared cache once, then
 * compute — instead of dying. The sweep still completes with
 * identical results; only cross-worker dedup is lost.
 */
class FleetFill
{
  public:
    FleetFill(JobPool &pool, const std::string &dir,
              const std::string &owner, double ttl_sec,
              FleetCounters &counters)
        : pool_(pool), counters_(counters), claims_(dir, owner, ttl_sec)
    {
    }

    void fill(FillRounds &rounds);

  private:
    void runClaimLoop(std::vector<FillTask> &tasks);

    /** Fill the pending tasks without claims (poll once, then
     *  compute): the degraded path when the claims dir is unusable. */
    void runSolo(std::vector<FillTask> &tasks,
                 const std::vector<std::size_t> &pending);

    JobPool &pool_;
    FleetCounters &counters_;
    ClaimStore claims_;
    bool soloNoted_ = false; ///< count the fallback once per worker
};

void
FleetFill::runSolo(std::vector<FillTask> &tasks,
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
        FillTask &t = tasks[pending[k]];
        if (!t.poll())
            t.compute();
    });
}

void
FleetFill::runClaimLoop(std::vector<FillTask> &tasks)
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
            FillTask &t = tasks[pending[k]];
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
FleetFill::fill(FillRounds &rounds)
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

    for (std::vector<FillTask> &round : rounds)
        runClaimLoop(round);

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
    : runner_(runner), pool_(workers),
      worker_(!runner.config().workerId.empty() ? runner.config().workerId
              : runner.config().fleet           ? ClaimStore::defaultOwner()
                                                : "local")
{
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

    const ExperimentConfig &cfg = runner_.config();
    ResultCache &cache = runner_.cache();
    if (cfg.fleet) {
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
    // Named, not a temporary: the tasks keep a reference to it.
    const Notify notify = [&](Fill fill) {
        std::lock_guard<std::mutex> lock(progressMu);
        if (fill == Fill::Remote)
            remote++;
        else
            computed++;
        if (on_done)
            on_done({hits + computed + remote, jobs.size(), hits,
                     computed, remote, elapsed()});
    };

    FillRounds rounds = fillRounds(runner_, jobs, misses, results, notify);
    if (cfg.fleet)
        FleetFill(pool_, cache.dir(), worker_, cfg.leaseTtlSec,
                  fleetCounters_)
            .fill(rounds);
    else
        for (std::vector<FillTask> &round : rounds)
            pool_.run(round.size(),
                      [&](std::size_t k) { round[k].compute(); });
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
