/**
 * @file
 * Conventional set-associative array (16- or 64-way in the paper's
 * Fig 13 sensitivity study; the private-LLC baseline also uses it).
 *
 * The class is final and its probe path (setIndex / lookup /
 * victimCandidates) is defined inline here so the partition schemes'
 * devirtualized dispatch (scheme.h) collapses to a straight-line tag
 * scan. The set index is hashed once per access: lookup() memoizes
 * the base slot of the address it probed, and the victim walk of the
 * miss that follows reuses it instead of re-hashing. The memo is
 * keyed on the address and the index is a pure function of (addr,
 * salt), so a stale entry can never produce a wrong base — callers
 * that skip lookup() (tests, benches) just recompute.
 */

#pragma once

#include <vector>

#include "cache/array.h"
#include "common/hash.h"

namespace ubik {

/** Set-associative array with a hashed index. */
class SetAssocArray final : public CacheArray
{
  public:
    /**
     * @param num_lines total capacity in lines (must be a multiple of
     *        ways)
     * @param ways associativity
     * @param hash_salt perturbs the index hash so different cache
     *        instances do not alias identically
     */
    SetAssocArray(std::uint64_t num_lines, std::uint32_t ways,
                  std::uint64_t hash_salt = 0);

    std::int64_t
    lookup(Addr addr) const override
    {
        std::uint64_t base = probeBase(addr);
        const Addr *tags = tags_.data();
        for (std::uint32_t w = 0; w < ways_; w++) {
            if (tags[base + w] == addr)
                return static_cast<std::int64_t>(base + w);
        }
        // Miss: the set's records are the victim candidates the
        // scheme scans next; their lines are contiguous, one record
        // each.
        for (std::uint32_t w = 0; w < ways_; w++)
            __builtin_prefetch(&meta_[base + w], 0, 3);
        return -1;
    }

    void
    victimCandidates(Addr addr, std::vector<Candidate> &out) const override
    {
        // Sized once and filled through a raw pointer: a push_back
        // per way stays out of line.
        if (out.size() != ways_)
            out.resize(ways_);
        Candidate *cand = out.data();
        std::uint64_t base = probeBase(addr);
        for (std::uint32_t w = 0; w < ways_; w++) {
            cand[w].slot = base + w;
            cand[w].parent = -1;
        }
    }

    std::uint64_t install(Addr addr, const std::vector<Candidate> &cands,
                          std::size_t victim_idx) override;
    std::uint32_t associativity() const override { return ways_; }

    std::uint64_t numSets() const { return sets_; }

    /** Set index for an address (exposed for way-partitioning tests). */
    std::uint64_t
    setIndex(Addr addr) const
    {
        return mix64(addr ^ salt_) % sets_;
    }

  private:
    /** First slot of addr's set, hashed at most once per access. */
    std::uint64_t
    probeBase(Addr addr) const
    {
        if (probeAddr_ != addr) {
            probeAddr_ = addr;
            probeBase_ = setIndex(addr) * ways_;
        }
        return probeBase_;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    std::uint64_t salt_;

    /** lookup()/victimCandidates() memo of the last probed address. */
    mutable Addr probeAddr_ = kInvalidAddr;
    mutable std::uint64_t probeBase_ = 0;
};

} // namespace ubik
