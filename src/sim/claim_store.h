/**
 * @file
 * Lock-free filesystem claim records for the distributed sweep
 * fabric: tiny lease files under `<cache-dir>/claims` let N
 * independent processes — on one host or many sharing the directory —
 * partition one sweep matrix between them with no coordinator.
 *
 * Protocol, per work descriptor (keyed by its canonical result-cache
 * key):
 *
 *  - claim:     create `<hash(key)>.lease` with O_CREAT|O_EXCL — the
 *               filesystem arbitrates, exactly one claimant wins.
 *  - heartbeat: the owner refreshes the lease's mtime periodically
 *               (every TTL/4), so a live owner never looks stale.
 *  - publish:   the owner computes the result and stores it in the
 *               ResultCache (fsync'd before the lease is dropped when
 *               the cache is in durable mode), then
 *  - release:   unlinks its lease. "Result present, lease absent" is
 *               the steady state peers observe.
 *  - crash:     a dead owner stops heartbeating; once the lease's age
 *               exceeds the TTL any peer may break it — an atomic
 *               rename to a per-breaker tombstone, so exactly one
 *               breaker wins — and reclaim the work.
 *
 * Safety does not depend on clocks or timing: every result is a pure
 * function of its descriptor, so the worst a mistimed expiry (or a
 * breaker racing a slow-but-alive owner) can cost is one duplicate
 * computation of an identical value — never a wrong or torn result.
 * Liveness holds because every lease is eventually released or
 * expires, and waiters poll the result cache rather than the lease,
 * so an owner that dies *after* publishing still unblocks its peers.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace ubik {

class ClaimStore
{
  public:
    /** Claim records live in this subdirectory of the cache dir. */
    static constexpr const char *kSubdir = "claims";

    /**
     * @param cache_dir result-cache directory the claims coordinate
     *                  (the claims subdir is created on demand)
     * @param owner this worker's identity, written into its leases
     *              (debugging only; sanitized for filesystem use)
     * @param ttl_sec lease age beyond which the owner is presumed
     *                dead and the lease may be broken
     */
    ClaimStore(const std::string &cache_dir, std::string owner,
               double ttl_sec);

    /** Try to claim `key`; true iff this store now owns the lease.
     *  Returns false both when a peer holds the lease and when the
     *  claims directory has become unusable — check usable() to tell
     *  the two apart. */
    bool tryAcquire(const std::string &key);

    /** Drop an owned lease (idempotent: a peer that presumed us dead
     *  may have broken it already). */
    void release(const std::string &key);

    /** Refresh the mtime of every lease this store holds, so a live
     *  owner never crosses the TTL. A lease whose heartbeat cannot be
     *  written (claims dir vanished, I/O error) is voluntarily
     *  released — peers reclaim it after the TTL instead of waiting
     *  on a silently un-heartbeated owner — and counted in
     *  hbReleases(). */
    void heartbeatAll();

    /**
     * False once the claims directory has proven unusable (creation
     * failed at construction, or lease creation keeps failing with
     * real I/O errors). Callers should degrade to solo execution:
     * claims only deduplicate work across workers, so losing them
     * costs duplicate computes of identical values, never
     * correctness.
     */
    bool usable() const
    {
        return usable_.load(std::memory_order_relaxed);
    }

    /** Leases voluntarily released because their heartbeat failed. */
    std::uint64_t hbReleases() const
    {
        return hbReleases_.load(std::memory_order_relaxed);
    }

    /**
     * Break `key`'s lease if it exists and is older than the TTL.
     * Returns true when the lease is gone afterwards (broken by us,
     * by a racing peer, or never existed) — i.e. the key is
     * claimable; false while a live owner holds it.
     */
    bool breakStale(const std::string &key);

    /** Remove every expired lease left in the claims directory
     *  (crash leftovers); returns how many were reclaimed. */
    std::uint64_t gcStale();

    /** One lease file present in a claims directory. */
    struct Lease
    {
        std::string path;
        std::string owner; ///< empty until the claimant writes it
        std::string key;   ///< the claimed work's cache key
    };

    /** Every lease under `cache_dir`'s claims directory, held or
     *  expired-but-unbroken, with the owner and key its claimant
     *  wrote into it. */
    static std::vector<Lease> leases(const std::string &cache_dir);

    /** Lease path for `key` (exposed for tests and for crash
     *  injection: backdating a lease's mtime simulates a dead
     *  owner without waiting out the TTL). */
    std::string leasePath(const std::string &key) const;

    double ttlSec() const { return ttlSec_; }
    const std::string &owner() const { return owner_; }

    /** Paths of the leases this store currently holds. */
    std::vector<std::string> held() const;

    /** A default worker identity: host + pid. */
    static std::string defaultOwner();

  private:
    bool staleAt(const std::string &path) const;

    std::string cacheDir_;
    std::string dir_; ///< <cache-dir>/claims
    std::string owner_;
    double ttlSec_;

    mutable std::mutex mu_;
    std::set<std::string> held_; ///< lease paths we own

    std::atomic<bool> usable_{true};
    std::atomic<std::uint64_t> hbReleases_{0};
    std::atomic<bool> createWarned_{false};
    std::atomic<bool> hbWarned_{false};
};

} // namespace ubik
