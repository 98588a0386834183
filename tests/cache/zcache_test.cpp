/**
 * @file
 * Tests for the zcache array: candidate expansion via replacement
 * walks, relocation chains, and the residency invariants Vantage's
 * analysis depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cache/zcache_array.h"
#include "common/rng.h"

namespace ubik {
namespace {

TEST(ZCacheArray, Geometry)
{
    ZCacheArray a(4096, 4, 52);
    EXPECT_EQ(a.numLines(), 4096u);
    EXPECT_EQ(a.ways(), 4u);
    EXPECT_EQ(a.associativity(), 52u);
}

TEST(ZCacheArray, InstallThenLookup)
{
    ZCacheArray a(4096, 4, 52);
    std::vector<Candidate> cands;
    a.victimCandidates(0x77, cands);
    ASSERT_FALSE(cands.empty());
    std::uint64_t slot = a.install(0x77, cands, 0);
    EXPECT_EQ(a.lookup(0x77), static_cast<std::int64_t>(slot));
}

TEST(ZCacheArray, CandidateCountNearTarget)
{
    // Walk expansion needs resident lines to relocate, so fill the
    // array first (an empty slot is a terminal candidate anyway).
    ZCacheArray a(8192, 4, 52);
    std::vector<Candidate> cands;
    for (Addr x = 0; x < 16384; x++) {
        if (a.lookup(x) >= 0)
            continue;
        a.victimCandidates(x, cands);
        a.install(x, cands, x % cands.size());
    }
    a.victimCandidates(0x40000, cands);
    // First level yields `ways` candidates; walks expand to ~52.
    EXPECT_GE(cands.size(), 40u);
    EXPECT_LE(cands.size(), 52u);
}

TEST(ZCacheArray, CandidateSlotsDistinct)
{
    ZCacheArray a(8192, 4, 52);
    std::vector<Candidate> cands;
    a.victimCandidates(0xdef, cands);
    std::set<std::uint64_t> slots;
    for (const auto &c : cands)
        slots.insert(c.slot);
    EXPECT_EQ(slots.size(), cands.size());
}

TEST(ZCacheArray, FirstLevelParentsAreRoots)
{
    ZCacheArray a(8192, 4, 52);
    std::vector<Candidate> cands;
    a.victimCandidates(0x123, cands);
    for (std::size_t i = 0; i < 4 && i < cands.size(); i++)
        EXPECT_EQ(cands[i].parent, -1);
    for (std::size_t i = 4; i < cands.size(); i++) {
        ASSERT_GE(cands[i].parent, 0);
        ASSERT_LT(static_cast<std::size_t>(cands[i].parent), i);
    }
}

/**
 * The defining zcache property: installing into a deep candidate
 * relocates lines along the chain, and every previously resident
 * line except the victim remains findable afterwards.
 */
TEST(ZCacheArray, RelocationsPreserveResidency)
{
    ZCacheArray a(1024, 4, 16, 99);
    std::vector<Candidate> cands;
    std::set<Addr> resident;
    std::uint64_t x = 777;
    for (int i = 0; i < 5000; i++) {
        x = x * 2862933555777941757ull + 3037000493ull;
        Addr addr = (x >> 16) % 4096;
        if (a.lookup(addr) >= 0)
            continue;
        a.victimCandidates(addr, cands);
        ASSERT_FALSE(cands.empty());
        // Deliberately choose the *deepest* candidate to exercise the
        // longest relocation chains.
        std::size_t victim_idx = cands.size() - 1;
        Addr victim = a.addrAt(cands[victim_idx].slot);
        a.install(addr, cands, victim_idx);
        if (victim != kInvalidAddr)
            resident.erase(victim);
        resident.insert(addr);
        // Spot-check every 97 installs to keep the test fast.
        if (i % 97 == 0) {
            for (Addr r : resident)
                ASSERT_GE(a.lookup(r), 0)
                    << "lost line after relocation chain";
        }
    }
    for (Addr r : resident)
        EXPECT_GE(a.lookup(r), 0);
}

TEST(ZCacheArray, NoDuplicateResidentAddresses)
{
    ZCacheArray a(512, 4, 16, 5);
    std::vector<Candidate> cands;
    std::uint64_t x = 31337;
    for (int i = 0; i < 3000; i++) {
        x = x * 6364136223846793005ull + 1;
        Addr addr = (x >> 24) % 600; // heavy conflict pressure
        if (a.lookup(addr) >= 0)
            continue;
        a.victimCandidates(addr, cands);
        a.install(addr, cands, x % cands.size());
    }
    std::map<Addr, int> seen;
    for (std::uint64_t s = 0; s < a.numLines(); s++)
        if (a.validAt(s))
            seen[a.addrAt(s)]++;
    for (const auto &[addr, n] : seen)
        EXPECT_EQ(n, 1) << "address " << addr << " resident twice";
}

TEST(ZCacheArray, WaySlotConsistentWithCandidates)
{
    ZCacheArray a(4096, 4, 52, 11);
    std::vector<Candidate> cands;
    a.victimCandidates(0x5555, cands);
    // First-level candidates must be the address's own way slots.
    std::set<std::uint64_t> own;
    for (std::uint32_t w = 0; w < 4; w++)
        own.insert(a.waySlot(0x5555, w));
    for (std::size_t i = 0; i < 4 && i < cands.size(); i++)
        EXPECT_TRUE(own.count(cands[i].slot));
}

TEST(ZCacheArray, FlushEmptiesEverything)
{
    ZCacheArray a(512, 4, 16);
    std::vector<Candidate> cands;
    for (Addr x = 0; x < 100; x++) {
        if (a.lookup(x) >= 0)
            continue;
        a.victimCandidates(x, cands);
        a.install(x, cands, 0);
    }
    a.flush();
    for (std::uint64_t s = 0; s < a.numLines(); s++)
        EXPECT_FALSE(a.validAt(s));
}

class ZCacheStress
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(ZCacheStress, LookupAlwaysFindsLastInstall)
{
    auto [ways, cand_target] = GetParam();
    ZCacheArray a(2048, ways, cand_target, 17);
    std::vector<Candidate> cands;
    std::uint64_t x = 9001;
    for (int i = 0; i < 4000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Addr addr = x % 10000;
        if (a.lookup(addr) >= 0)
            continue;
        a.victimCandidates(addr, cands);
        std::uint64_t slot = a.install(addr, cands, x % cands.size());
        ASSERT_EQ(a.lookup(addr), static_cast<std::int64_t>(slot));
        ASSERT_EQ(a.addrAt(slot), addr);
    }
}

/**
 * Naive breadth-first reference for the replacement walk: plain
 * vectors, linear-search dedup, and every resident line re-hashed
 * through waySlot() (never the install-time bank cache).
 */
std::vector<Candidate>
referenceWalk(const ZCacheArray &a, Addr addr)
{
    const std::size_t cap = a.associativity();
    std::vector<Candidate> ref;
    auto push = [&](std::uint64_t slot, std::int32_t parent) {
        for (const Candidate &c : ref)
            if (c.slot == slot)
                return;
        ref.push_back({slot, parent});
    };
    for (std::uint32_t w = 0; w < a.ways() && ref.size() < cap; w++)
        push(a.waySlot(addr, w), -1);
    for (std::size_t head = 0; head < ref.size() && ref.size() < cap;
         head++) {
        std::uint64_t own = ref[head].slot;
        if (!a.validAt(own))
            continue;
        Addr resident = a.addrAt(own);
        for (std::uint32_t w = 0; w < a.ways() && ref.size() < cap;
             w++) {
            std::uint64_t alt = a.waySlot(resident, w);
            if (alt != own)
                push(alt, static_cast<std::int32_t>(head));
        }
    }
    return ref;
}

/** Equal (slot, parent) sequences, or the first divergence. */
::testing::AssertionResult
sameWalk(const std::vector<Candidate> &got,
         const std::vector<Candidate> &want)
{
    const std::size_t n = std::min(got.size(), want.size());
    for (std::size_t i = 0; i < n; i++) {
        if (got[i].slot != want[i].slot ||
            got[i].parent != want[i].parent)
            return ::testing::AssertionFailure()
                   << "candidate " << i << ": walk (slot " << got[i].slot
                   << ", parent " << got[i].parent << "), reference (slot "
                   << want[i].slot << ", parent " << want[i].parent << ")";
    }
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "walk has " << got.size() << " candidates, reference "
               << want.size() << " (the first " << n << " agree)";
    return ::testing::AssertionSuccess();
}

struct WalkCase
{
    const char *name;
    std::uint64_t lines;
    std::uint32_t ways;
    std::uint32_t candidates;
    int installs;        ///< seeded random installs before/among walks
    Addr addrRange;      ///< addresses drawn from [0, addrRange)
    bool expectShort;    ///< some walks must end below the cap
};

void
PrintTo(const WalkCase &c, std::ostream *os)
{
    *os << c.name;
}

class ZCacheWalkLockstep : public ::testing::TestWithParam<WalkCase>
{
};

/**
 * The walk's fast paths (raw-pointer fill, stamped dedup set, bank
 * cache, lookup memo) must yield exactly the reference's candidate
 * sequence. Every miss is checked before its install, reusing the
 * probe slots its lookup memoized; a walk-only probe of another
 * address after each install, and a final run of back-to-back walks,
 * hash afresh. One array thus serves thousands of consecutive walks
 * (the dedup stamp advances on every one).
 */
TEST_P(ZCacheWalkLockstep, MatchesReferenceWalk)
{
    const WalkCase &c = GetParam();
    ZCacheArray a(c.lines, c.ways, c.candidates, 0x5eed);
    Rng rng(4242);
    std::vector<Candidate> cands;
    int walks = 0, short_walks = 0;
    auto check = [&](Addr addr) {
        a.victimCandidates(addr, cands);
        walks++;
        if (cands.size() < c.candidates)
            short_walks++;
        EXPECT_TRUE(sameWalk(cands, referenceWalk(a, addr)))
            << c.name << ", walk " << walks << ", addr " << addr;
    };
    for (int i = 0; i < c.installs && !HasFailure(); i++) {
        Addr addr = rng.uniformInt(c.addrRange);
        if (a.lookup(addr) >= 0)
            continue;
        check(addr);
        if (HasFailure())
            return;
        a.install(addr, cands, rng.uniformInt(cands.size()));
        check(rng.uniformInt(c.addrRange));
    }
    for (int i = 0; i < 5000 && !HasFailure(); i++)
        check(rng.uniformInt(4 * c.addrRange));
    EXPECT_GT(walks, 5000);
    if (c.expectShort) {
        EXPECT_GT(short_walks, 0) << c.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ZCacheWalkLockstep,
    ::testing::Values(
        WalkCase{"Z4/52", 8192, 4, 52, 12000, 32768, false},
        WalkCase{"Z4/16", 2048, 4, 16, 6000, 8192, false},
        // Wider than the bank cache: children come from re-hashing.
        WalkCase{"Z8/64", 4096, 8, 64, 8000, 16384, false},
        // Mostly empty: walks stop at empty slots and end short.
        WalkCase{"Z4/52-partly-empty", 16384, 4, 52, 2500, 1 << 20,
                 true}),
    [](const ::testing::TestParamInfo<WalkCase> &info) {
        std::string name = info.param.name;
        for (char &ch : name)
            if (ch == '/' || ch == '-')
                ch = '_';
        return name;
    });

INSTANTIATE_TEST_SUITE_P(
    Geometries, ZCacheStress,
    ::testing::Values(std::make_pair(2u, 8u), std::make_pair(4u, 16u),
                      std::make_pair(4u, 52u),
                      std::make_pair(8u, 64u)));

} // namespace
} // namespace ubik
