/**
 * @file
 * Cache array geometry interface.
 *
 * An array answers two questions: where does a line live (lookup), and
 * which resident lines could be displaced to make room for a new line
 * (victim candidates). Replacement *choice* belongs to the partition
 * scheme layered on top (see scheme.h), which is what lets us evaluate
 * {way-partitioning, Vantage} x {SA16, SA64, Z4/52} as in Fig 13.
 *
 * Storage is structure-of-arrays, split by access pattern, and lives
 * in this base class:
 *
 *  - `tags_`  — dense Addr vector; the only thing lookup() touches,
 *               so at paper scale the probe working set is 1.5MB and
 *               stays resident in a host L2;
 *  - `meta_`  — one cache-line-sized record per slot (LRU stamp,
 *               partition, validity, bookkeeping, array acceleration
 *               state); the replacement walk, every victim scan, and
 *               a hit's bookkeeping all land on a single host line
 *               per slot touched.
 *
 * The old layout was one unaligned 40-byte array-of-structs record
 * whose tag field dragged the whole record through the host cache on
 * every probe. Tag/metadata access is non-virtual; only the
 * geometry operations dispatch per array kind, and the partition
 * schemes devirtualize even those (scheme.h).
 *
 * For the zcache, a candidate is reached through a chain of
 * relocations; Candidate::parent encodes the chain so install() can
 * perform the moves.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/line.h"
#include "common/hugepage.h"
#include "common/types.h"

namespace ubik {

/** One replacement candidate produced by victimCandidates(). */
struct Candidate
{
    /** Slot index of the candidate line. */
    std::uint64_t slot;

    /**
     * Index (into the candidate vector) of the node whose line can
     * relocate into this slot; -1 for first-level candidates.
     */
    std::int32_t parent;
};

/** Abstract cache array: SoA slot storage plus placement geometry. */
class CacheArray
{
  public:
    explicit CacheArray(std::uint64_t num_lines)
        : tags_(num_lines, kInvalidAddr), meta_(num_lines)
    {
    }

    virtual ~CacheArray() = default;

    /** Total slots in the array. */
    std::uint64_t numLines() const { return tags_.size(); }

    /** Line address resident in a slot; kInvalidAddr when empty. */
    Addr addrAt(std::uint64_t slot) const { return tags_[slot]; }

    /** Whether a slot holds a valid line. */
    bool validAt(std::uint64_t slot) const
    {
        return meta_[slot].valid != 0;
    }

    /** Per-slot record (everything but the tag). */
    LineMeta &meta(std::uint64_t slot) { return meta_[slot]; }
    const LineMeta &meta(std::uint64_t slot) const
    {
        return meta_[slot];
    }

    /** Raw SoA view of the records (victim scans cache this). */
    const LineMeta *metaData() const { return meta_.data(); }

    /**
     * Find the slot holding addr.
     * @return slot index, or -1 if not present.
     */
    virtual std::int64_t lookup(Addr addr) const = 0;

    /**
     * Enumerate replacement candidates for inserting addr.
     * Candidates appear in expansion order; out's previous contents
     * are replaced.
     */
    virtual void victimCandidates(Addr addr,
                                  std::vector<Candidate> &out) const = 0;

    /**
     * Install addr in place of the chosen candidate, performing any
     * relocations the candidate's chain requires (zcache). The victim
     * line's tag and records are overwritten; the caller reads them
     * beforehand.
     *
     * @param addr line being inserted
     * @param cands the vector previously filled by victimCandidates
     * @param victim_idx index into cands of the chosen victim
     * @return slot index where addr now resides
     */
    virtual std::uint64_t install(Addr addr,
                                  const std::vector<Candidate> &cands,
                                  std::size_t victim_idx) = 0;

    /**
     * Number of candidates victimCandidates() aims to produce
     * (associativity for SA, 52 for the default zcache).
     */
    virtual std::uint32_t associativity() const = 0;

    /** Invalidate every line (used between experiment phases). */
    virtual void
    flush()
    {
        std::fill(tags_.begin(), tags_.end(), kInvalidAddr);
        for (LineMeta &m : meta_)
            m.clear();
    }

  protected:
    /** Dense tag array (lookup path); hugepage-backed — at paper
     *  scale these arrays otherwise thrash the host TLB. */
    std::vector<Addr, HugePageAllocator<Addr>> tags_;

    /** Per-slot records, one host cache line each (hugepage-backed). */
    std::vector<LineMeta, HugePageAllocator<LineMeta>> meta_;
};

} // namespace ubik
