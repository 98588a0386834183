/**
 * @file
 * ZCache array (Sanchez & Kozyrakis, MICRO-43 2010): a W-way
 * skew-associative cache whose replacement process walks the graph of
 * alternative locations to collect R >> W victim candidates, then
 * relocates lines along the chosen path so the incoming line always
 * lands in one of its own W positions.
 *
 * The paper's default LLC is a 4-way, 52-candidate zcache (Table 2).
 * Vantage's analytical guarantees rely on this many candidates; Fig 13
 * shows what happens with fewer (SA16/SA64).
 *
 * This is the hottest code in the simulator: every access probes W
 * slots and every miss walks ~52. The class is final with the probe
 * path defined inline here so the schemes' devirtualized dispatch
 * (scheme.h) inlines it; the walk touches exactly one 64-byte
 * LineMeta record (one host cache line) per candidate — validity and
 * the way-bank cache live there, so neither tags nor hashing are
 * needed to expand a node; and the W way hashes of the accessed
 * address are computed once per access — lookup() memoizes its probe
 * slots and the victim walk of the same address reuses them. The
 * memo is keyed on the address and way slots are pure functions of
 * (addr, salt), so a stale entry can never yield wrong slots.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "cache/array.h"
#include "common/hash.h"

namespace ubik {

/** Skew-associative zcache with replacement-walk candidate expansion. */
class ZCacheArray final : public CacheArray
{
  public:
    /**
     * @param num_lines total capacity in lines (multiple of ways)
     * @param ways number of hash functions / banks (paper: 4)
     * @param candidates replacement candidates per eviction (paper: 52)
     * @param hash_salt perturbs all way hashes
     */
    ZCacheArray(std::uint64_t num_lines, std::uint32_t ways = 4,
                std::uint32_t candidates = 52, std::uint64_t hash_salt = 0);

    std::int64_t
    lookup(Addr addr) const override
    {
        const std::uint32_t *fp = tagFp_.data();
        std::uint64_t *probe = probeSlots_.data();
        const std::uint32_t f = tagFingerprint(addr);
        // Hash all ways up front so the W fingerprint loads issue in
        // parallel (they are independent; interleaving hash -> load
        // -> compare serializes them on the load latency). The probe
        // stream reads the 4-byte fingerprint array — a quarter of
        // the full tag array, so it stays L2-resident under record
        // traffic — and touches a full tag only on a fingerprint
        // match, which the full compare then confirms: the result is
        // exactly the full-tag scan's. No record lines are pulled
        // here; the walk prefetches the slots that actually become
        // candidates.
        for (std::uint32_t w = 0; w < ways_; w++) {
            probe[w] = waySlot(addr, w);
            __builtin_prefetch(&fp[probe[w]], 0, 3);
        }
        probeAddr_ = addr; // memo valid for the walk on a miss
        for (std::uint32_t w = 0; w < ways_; w++) {
            if (fp[probe[w]] == f && tags_[probe[w]] == addr)
                return static_cast<std::int64_t>(probe[w]);
        }
        // Miss: these W slots are level 0 of the replacement walk
        // that follows immediately; start their record loads now so
        // the walk's first expansions don't eat the full memory
        // latency. Issued only on the miss path — pulling W record
        // lines per *hit* measurably hurt.
        for (std::uint32_t w = 0; w < ways_; w++)
            __builtin_prefetch(&meta_[probe[w]], 0, 3);
        return -1;
    }

    void victimCandidates(Addr addr,
                          std::vector<Candidate> &out) const override;

    /**
     * victimCandidates() plus a fused per-candidate visitor:
     * visit(index, record) is called exactly once per candidate, in
     * ascending candidate order, at the first moment the walk has
     * the record in hand (expansion for walked nodes, a tail sweep
     * for the final level). Schemes fold their victim-selection
     * scans into the walk this way instead of re-traversing the
     * candidate list after it — ascending order makes every
     * first-strictly-better accumulator behave exactly as it did
     * over the separate scan. The visitor must only read.
     */
    template <typename Visit>
    void
    victimCandidatesVisit(Addr addr, std::vector<Candidate> &out,
                          Visit &&visit) const
    {
        // The candidate list is written through a raw pointer into a
        // vector sized to the cap once, then trimmed if the walk ends
        // short: a push_back per candidate stays out of line and
        // reloads the element it was just handed.
        const std::uint32_t cap = candidates_;
        const std::uint32_t ways = ways_;
        const std::uint64_t bank_lines = bankLines_;
        if (out.size() != cap)
            out.resize(cap);
        Candidate *cand = out.data();
        std::uint32_t n = 0;

        // Breadth-first walk: level 0 is the incoming address's own W
        // positions; deeper levels are the alternative positions of
        // the lines occupying earlier candidates. Duplicate slots
        // (the walk graph can revisit) are rejected by a small
        // open-addressed set (~1 L1 probe per push; the
        // multiplicative hash only orders the scratch set and cannot
        // affect which slots are walked). The walk reads one record
        // per candidate and nothing else: validity and the ways<=4
        // bank cache live in LineMeta.
        const LineMeta *meta = meta_.data();
        std::uint64_t *dedup = dedup_.data();
        const std::uint32_t mask = dedupMask_;
        const std::uint64_t live = nextWalkStamp();
        auto push = [&](std::uint64_t slot, std::int32_t parent) {
            const std::uint64_t key =
                live | static_cast<std::uint32_t>(slot);
            std::uint32_t h = static_cast<std::uint32_t>(
                                  slot * 0x9e3779b97f4a7c15ull >> 32) &
                              mask;
            for (;;) {
                const std::uint64_t e = dedup[h];
                if (e < live) // free: empty or from an earlier walk
                    break;
                if (e == key)
                    return;
                h = (h + 1) & mask;
            }
            dedup[h] = key;
            // The FIFO expansion reads this slot's record several
            // iterations from now; start the load while the walk
            // still has work to hide it behind.
            __builtin_prefetch(&meta[slot], 0, 3);
            cand[n].slot = slot;
            cand[n].parent = parent;
            n++;
        };

        if (probeAddr_ == addr) {
            // The lookup that preceded this miss already hashed the
            // address's own positions; reuse them.
            for (std::uint32_t w = 0; w < ways && n < cap; w++)
                push(probeSlots_[w], -1);
        } else {
            for (std::uint32_t w = 0; w < ways && n < cap; w++)
                push(waySlot(addr, w), -1);
        }

        // Expand in FIFO order; the candidate list itself is the queue.
        const bool cached_banks = ways <= kAuxWays;
        std::uint32_t head = 0;
        for (; head < n && n < cap; head++) {
            std::uint64_t own = cand[head].slot;
            const LineMeta &r = meta[own];
            visit(std::size_t{head}, r);
            if (!r.valid) {
                // Empty slot: nothing to relocate, no children.
                continue;
            }
            const std::int32_t parent = static_cast<std::int32_t>(head);
            if (cached_banks) {
                // Children come from the bank cache written at
                // install time, not from re-hashing the resident
                // line — at 52 candidates that removes ~150 mix64
                // evaluations and ~50 tag-array touches per miss.
                for (std::uint32_t w = 0; w < ways && n < cap; w++) {
                    std::uint64_t alt =
                        static_cast<std::uint64_t>(w) * bank_lines +
                        r.aux[w];
                    if (alt == own)
                        continue;
                    push(alt, parent);
                }
            } else {
                // Wide geometries (> kAuxWays, tests only): re-hash.
                Addr resident = tags_[own];
                for (std::uint32_t w = 0; w < ways && n < cap; w++) {
                    std::uint64_t alt = waySlot(resident, w);
                    if (alt == own)
                        continue;
                    push(alt, parent);
                }
            }
        }
        // Tail sweep: candidates the size cap kept un-expanded.
        for (; head < n; head++)
            visit(std::size_t{head}, meta[cand[head].slot]);
        if (n < cap)
            out.resize(n);
    }
    std::uint64_t install(Addr addr, const std::vector<Candidate> &cands,
                          std::size_t victim_idx) override;
    std::uint32_t associativity() const override { return candidates_; }

    std::uint32_t ways() const { return ways_; }

    /** Invalidate every line, fingerprints included. */
    void flush() override;

    /** Slot index of addr in the given way (bank-local hash + offset). */
    std::uint64_t
    waySlot(Addr addr, std::uint32_t way) const
    {
        // Each way is an independent bank with its own hash (skewed
        // associativity); fold the way id into the hash input. The
        // bank index uses Lemire's multiplicative range reduction
        // instead of a modulo: this is the simulator's hottest
        // operation (4 per lookup, ~200 per replacement walk).
        std::uint64_t h = mix64(addr ^ salt_ ^
                                (0x9e3779b97f4a7c15ull * (way + 1)));
        std::uint64_t bank_idx = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(h) * bankLines_) >> 64);
        return static_cast<std::uint64_t>(way) * bankLines_ + bank_idx;
    }

  private:
    /**
     * LineMeta::aux capacity: geometries up to this many ways (the
     * paper's default is 4) cache the resident line's per-way bank
     * indices in the hot record at install time, so the replacement
     * walk expands children without re-hashing the line or touching
     * the tag array. Wider test-only geometries fall back to
     * re-hashing.
     */
    static constexpr std::uint32_t kAuxWays = 4;

    /**
     * 32-bit fold of a tag for the probe fast path. Equal addresses
     * always have equal fingerprints, so gating the full-tag compare
     * on a fingerprint match cannot change any lookup result — a
     * rare collision just costs one extra 64-bit compare.
     */
    static std::uint32_t
    tagFingerprint(Addr addr)
    {
        return static_cast<std::uint32_t>(addr ^ (addr >> 32));
    }

    std::uint32_t ways_;
    std::uint32_t candidates_;
    std::uint64_t bankLines_;
    std::uint64_t salt_;

    /** tagFingerprint(tags_[slot]) per slot (hugepage-backed). */
    std::vector<std::uint32_t, HugePageAllocator<std::uint32_t>> tagFp_;

    /**
     * Replacement-walk dedup scratch: a small open-addressed slot set
     * (power-of-two capacity a few times `candidates_`). ~1 L1 probe
     * per push — measurably cheaper than both a linear rescan of
     * collected candidates (O(R^2) compares) and a per-slot
     * generation-stamp array over the whole cache, whose random
     * read-modify-writes stalled the walk and wasted host cache on
     * 4 bytes per line. Each entry packs (walk stamp << 32 | slot);
     * an entry belongs to the current walk iff its stamp is the
     * current one, so a new walk empties the set by bumping the
     * stamp instead of clearing it, and the table is cleared only
     * when the 32-bit stamp wraps. Mutable because
     * victimCandidates() is logically const.
     */
    mutable std::vector<std::uint64_t> dedup_;
    std::uint32_t dedupMask_ = 0;
    mutable std::uint32_t walkStamp_ = 0;

    /**
     * Start a walk: advance the dedup stamp and return it shifted
     * into an entry's high half. Every entry of an earlier walk
     * compares below the result.
     */
    std::uint64_t
    nextWalkStamp() const
    {
        if (++walkStamp_ == 0) {
            std::fill(dedup_.begin(), dedup_.end(), 0);
            walkStamp_ = 1;
        }
        return static_cast<std::uint64_t>(walkStamp_) << 32;
    }

    /** lookup() memo: the accessed address's own way slots. */
    mutable std::vector<std::uint64_t> probeSlots_;
    mutable Addr probeAddr_ = kInvalidAddr;

    /** install() relocation-path scratch (no per-miss allocation). */
    std::vector<std::size_t> pathScratch_;
};

} // namespace ubik
