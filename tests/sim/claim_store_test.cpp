/**
 * @file
 * ClaimStore protocol tests: exclusive acquisition under contention,
 * release/re-acquire, stale-lease breaking (with mtime backdating as
 * crash injection), and orphan GC.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "sim/claim_store.h"
#include "support/cache_test_util.h"

using namespace ubik;
using namespace ubik::test;

namespace {

/** Backdate a lease's mtime so it reads as `age_sec` old — simulates
 *  an owner that stopped heartbeating without waiting out a TTL. */
void
backdate(const std::string &path, double age_sec)
{
    namespace fs = std::filesystem;
    fs::last_write_time(
        path, fs::file_time_type::clock::now() -
                  std::chrono::duration_cast<
                      fs::file_time_type::duration>(
                      std::chrono::duration<double>(age_sec)));
}

} // namespace

TEST(ClaimStore, ExactlyOneContenderWinsEachKey)
{
    TempCacheDir dir("claims_race");
    constexpr int kThreads = 8;
    constexpr int kKeys = 16;

    // One store per thread: contenders are independent instances, as
    // separate processes would be.
    std::vector<std::unique_ptr<ClaimStore>> stores;
    for (int t = 0; t < kThreads; t++)
        stores.push_back(std::make_unique<ClaimStore>(
            dir.path(), "w" + std::to_string(t), 60.0));

    std::vector<std::atomic<int>> winners(kKeys);
    for (auto &w : winners)
        w = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&, t] {
            for (int k = 0; k < kKeys; k++)
                if (stores[static_cast<std::size_t>(t)]->tryAcquire(
                        "key" + std::to_string(k)))
                    winners[static_cast<std::size_t>(k)].fetch_add(1);
        });
    for (auto &th : threads)
        th.join();

    for (int k = 0; k < kKeys; k++)
        EXPECT_EQ(winners[static_cast<std::size_t>(k)].load(), 1)
            << "key" << k;
}

TEST(ClaimStore, ReleaseMakesKeyClaimableAgain)
{
    TempCacheDir dir("claims_release");
    ClaimStore a(dir.path(), "a", 60.0);
    ClaimStore b(dir.path(), "b", 60.0);

    ASSERT_TRUE(a.tryAcquire("job"));
    EXPECT_FALSE(b.tryAcquire("job"));
    EXPECT_EQ(a.held().size(), 1u);

    a.release("job");
    EXPECT_TRUE(a.held().empty());
    EXPECT_TRUE(b.tryAcquire("job"));
}

TEST(ClaimStore, BreakStaleRespectsFreshLeases)
{
    TempCacheDir dir("claims_stale");
    ClaimStore owner(dir.path(), "owner", 5.0);
    ClaimStore peer(dir.path(), "peer", 5.0);

    using Break = ClaimStore::Break;
    // Absent lease: claimable, and nothing was broken.
    EXPECT_EQ(peer.breakStale("job"), Break::Absent);

    ASSERT_TRUE(owner.tryAcquire("job"));
    // Fresh lease: a live owner is protected.
    EXPECT_EQ(peer.breakStale("job"), Break::Live);
    EXPECT_FALSE(peer.tryAcquire("job"));

    // Heartbeats keep it fresh even when backdated in between.
    backdate(owner.leasePath("job"), 60.0);
    owner.heartbeatAll();
    EXPECT_EQ(peer.breakStale("job"), Break::Live);

    // A dead owner (no heartbeat past the TTL) is reclaimed: the
    // break reports it, and the key becomes claimable.
    backdate(owner.leasePath("job"), 60.0);
    EXPECT_EQ(peer.breakStale("job"), Break::Broken);
    EXPECT_EQ(peer.breakStale("job"), Break::Absent);
    EXPECT_TRUE(peer.tryAcquire("job"));
}

TEST(ClaimStore, ConcurrentBreakersAgreeLeaseIsGone)
{
    TempCacheDir dir("claims_break_race");
    ClaimStore owner(dir.path(), "owner", 1.0);
    ASSERT_TRUE(owner.tryAcquire("job"));
    backdate(owner.leasePath("job"), 30.0);

    constexpr int kThreads = 8;
    std::atomic<int> claimable{0};
    std::atomic<int> broken{0};
    std::vector<std::thread> threads;
    std::vector<std::unique_ptr<ClaimStore>> peers;
    for (int t = 0; t < kThreads; t++)
        peers.push_back(std::make_unique<ClaimStore>(
            dir.path(), "p" + std::to_string(t), 1.0));
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&, t] {
            const ClaimStore::Break b =
                peers[static_cast<std::size_t>(t)]->breakStale("job");
            if (b != ClaimStore::Break::Live)
                claimable.fetch_add(1);
            if (b == ClaimStore::Break::Broken)
                broken.fetch_add(1);
        });
    for (auto &th : threads)
        th.join();

    // Whether a breaker won the rename or raced a winner (ENOENT),
    // every one must report the lease claimable afterwards, and only
    // the one that won the rename reports breaking it.
    EXPECT_EQ(claimable.load(), kThreads);
    EXPECT_EQ(broken.load(), 1);
    EXPECT_FALSE(std::filesystem::exists(owner.leasePath("job")));
}

TEST(ClaimStore, GcReclaimsOnlyExpiredLeases)
{
    TempCacheDir dir("claims_gc");
    ClaimStore store(dir.path(), "w", 5.0);
    ASSERT_TRUE(store.tryAcquire("fresh"));
    ASSERT_TRUE(store.tryAcquire("dead1"));
    ASSERT_TRUE(store.tryAcquire("dead2"));
    backdate(store.leasePath("dead1"), 60.0);
    backdate(store.leasePath("dead2"), 60.0);

    EXPECT_EQ(store.gcStale(), 2u);
    EXPECT_TRUE(std::filesystem::exists(store.leasePath("fresh")));
    EXPECT_FALSE(std::filesystem::exists(store.leasePath("dead1")));
    EXPECT_EQ(store.gcStale(), 0u);
}

TEST(ClaimStore, LeasesListsHeldClaimsWithOwnerAndKey)
{
    TempCacheDir dir("claims_list");
    // No claims directory yet: nothing to list, and no error.
    EXPECT_TRUE(ClaimStore::leases(dir.path()).empty());

    ClaimStore a(dir.path(), "worker-a", 60.0);
    ClaimStore b(dir.path(), "worker-b", 60.0);
    ASSERT_TRUE(a.tryAcquire("v4|mix|name=x y"));
    ASSERT_TRUE(b.tryAcquire("key-b"));

    std::vector<ClaimStore::Lease> live =
        ClaimStore::leases(dir.path());
    ASSERT_EQ(live.size(), 2u);
    std::sort(live.begin(), live.end(), [](const auto &x, const auto &y) {
        return x.owner < y.owner;
    });
    EXPECT_EQ(live[0].owner, "worker-a");
    EXPECT_EQ(live[0].key, "v4|mix|name=x y"); // spaces survive
    EXPECT_EQ(live[0].path, a.leasePath("v4|mix|name=x y"));
    EXPECT_EQ(live[1].owner, "worker-b");
    EXPECT_EQ(live[1].key, "key-b");
    EXPECT_EQ(live[1].path, b.leasePath("key-b"));

    a.release("v4|mix|name=x y");
    b.release("key-b");
    EXPECT_TRUE(ClaimStore::leases(dir.path()).empty());
}

TEST(ClaimStore, HeartbeatSurvivesClaimsDirDisappearing)
{
    // The claims directory vanishing mid-run (operator rm -rf, NFS
    // unmount) must not crash or wedge the heartbeat: the affected
    // leases are voluntarily released — peers reclaim the work —
    // and counted.
    TempCacheDir dir("claims_vanish");
    ClaimStore store(dir.path(), "w", 60.0);
    ASSERT_TRUE(store.tryAcquire("job1"));
    ASSERT_TRUE(store.tryAcquire("job2"));

    std::filesystem::remove_all(dir.path() + "/" +
                                ClaimStore::kSubdir);
    store.heartbeatAll(); // ENOENT on every mtime refresh
    EXPECT_EQ(store.hbReleases(), 2u);
    EXPECT_TRUE(store.held().empty());

    // Quiet afterwards: nothing held, repeat heartbeats are no-ops.
    store.heartbeatAll();
    EXPECT_EQ(store.hbReleases(), 2u);
}

TEST(ClaimStore, HeartbeatFailureReleasesOnlyTheFailingLease)
{
    TempCacheDir dir("claims_hb_one");
    ClaimStore store(dir.path(), "w", 60.0);
    ASSERT_TRUE(store.tryAcquire("victim"));
    ASSERT_TRUE(store.tryAcquire("healthy"));

    // One injected heartbeat failure: exactly one lease (whichever
    // the failing evaluation lands on) is released, the other stays
    // held and on disk.
    failpointConfigure("claim.heartbeat=err:EIO@1");
    store.heartbeatAll();
    failpointReset();
    EXPECT_EQ(store.hbReleases(), 1u);
    EXPECT_EQ(store.held().size(), 1u);

    // The released lease is gone from disk, so peers can claim it
    // immediately rather than waiting out the TTL.
    int onDisk = 0;
    for (const char *k : {"victim", "healthy"})
        onDisk += std::filesystem::exists(store.leasePath(k)) ? 1 : 0;
    EXPECT_EQ(onDisk, 1);
    ClaimStore peer(dir.path(), "peer", 60.0);
    int claimed = 0;
    for (const char *k : {"victim", "healthy"})
        claimed += peer.tryAcquire(k) ? 1 : 0;
    EXPECT_EQ(claimed, 1);
}

TEST(ClaimStore, PersistentCreateErrorsDegradeToUnusable)
{
    TempCacheDir dir("claims_create_err");
    ClaimStore store(dir.path(), "w", 60.0);
    ASSERT_TRUE(store.usable());

    // Every lease create fails with a real I/O error (not EEXIST):
    // after bounded retries the store marks itself unusable so the
    // fleet sweep can fall back to solo execution instead of spinning.
    failpointConfigure("claim.create=err:EIO@*");
    EXPECT_FALSE(store.tryAcquire("job"));
    failpointReset();
    EXPECT_FALSE(store.usable());
    // Unusable is sticky: no further filesystem traffic.
    EXPECT_FALSE(store.tryAcquire("job"));

    // A healthy peer is unaffected.
    ClaimStore peer(dir.path(), "peer", 60.0);
    EXPECT_TRUE(peer.tryAcquire("job"));
}

TEST(ClaimStore, TransientCreateErrorIsRetriedThrough)
{
    // One injected failure then success: the acquire retries through
    // and the store stays usable.
    TempCacheDir dir("claims_create_transient");
    ClaimStore store(dir.path(), "w", 60.0);
    failpointConfigure("claim.create=err:EIO@1");
    EXPECT_TRUE(store.tryAcquire("job"));
    failpointReset();
    EXPECT_TRUE(store.usable());
    EXPECT_EQ(store.held().size(), 1u);
}

TEST(ClaimStore, UnusableClaimsDirWarnsInsteadOfDying)
{
    // A plain file where the claims directory should be: the ctor
    // must degrade (usable() == false), not fatal.
    TempCacheDir dir("claims_blocked");
    std::filesystem::create_directories(dir.path());
    {
        std::ofstream block(dir.path() + "/" + ClaimStore::kSubdir);
        block << "in the way\n";
    }
    ClaimStore store(dir.path(), "w", 60.0);
    EXPECT_FALSE(store.usable());
    EXPECT_FALSE(store.tryAcquire("job"));
}
