/**
 * @file
 * Vantage fine-grained partitioning (Sanchez & Kozyrakis, ISCA-38
 * 2011), the enforcement scheme Ubik builds on.
 *
 * Vantage divides the cache into a managed region (the partitions,
 * sized at line granularity) and a small unmanaged region. Evictions
 * are taken from the unmanaged region; partitions over their target
 * feed it by *demoting* lines (two-stage demotion-eviction). The
 * property Ubik's transient analysis requires (§5.1) emerges directly:
 * a partition below its target is essentially never evicted from, so
 * every miss grows it by exactly one line until it reaches the target.
 *
 * When the candidate set is small (set-associative arrays), the walk
 * sometimes finds neither an unmanaged line nor an over-target donor,
 * forcing an eviction from an at-or-under-target partition. We count
 * these: they are the mechanism behind Fig 13's SA16 degradation.
 */

#pragma once

#include "cache/scheme.h"

namespace ubik {

/** Vantage partitioning over any CacheArray. */
class Vantage : public PartitionScheme
{
  public:
    /**
     * @param array backing array (zcache for full guarantees; SA for
     *        the Fig 13 sensitivity study)
     * @param num_partitions includes the unmanaged region (PartId 0)
     * @param unmanaged_frac fraction of capacity reserved for the
     *        unmanaged region (paper uses ~5%)
     */
    Vantage(std::unique_ptr<CacheArray> array,
            std::uint32_t num_partitions, double unmanaged_frac = 0.05);

    /**
     * Targets are interpreted over the full capacity and scaled
     * internally by (1 - unmanaged_frac); callers may allocate the
     * whole cache across partitions.
     */
    void setTargetSize(PartId p, std::uint64_t lines) override;

    /** Internally scaled target actually enforced for p. */
    std::uint64_t effectiveTarget(PartId p) const { return effTargets_[p]; }

    /** Current size of the unmanaged region, lines. */
    std::uint64_t unmanagedSize() const { return actual_[0]; }

    /** Demotions performed so far. */
    std::uint64_t demotions() const { return demotions_; }

    /**
     * Evictions that removed a line from a partition at or below its
     * effective target — violations of the no-eviction-while-growing
     * guarantee.
     */
    std::uint64_t
    underTargetEvictions() const
    {
        return underTargetEvictions_;
    }

  protected:
    std::uint64_t missInstall(Addr addr, const AccessContext &ctx,
                              AccessOutcome &out) override;
    void onHit(std::uint64_t slot, const AccessContext &ctx) override;

  private:
    /**
     * One demotion round over the current candidate set and state:
     * demote the best (most over-target, then oldest) eligible line
     * into the unmanaged region.
     * @return index (into candScratch_) of the demoted candidate, or
     *         candScratch_.size() if nothing was demotable.
     */
    std::size_t demoteRound();

    double unmanagedFrac_;
    std::uint64_t unmanagedTarget_;
    std::vector<std::uint64_t> effTargets_;
    /** missInstall() scratch: per partition, excess over target + 1
     *  if demotable, else 0 (the demotion key's high half). */
    std::vector<std::uint64_t> demoteRank_;
    std::uint64_t demotions_ = 0;
    std::uint64_t underTargetEvictions_ = 0;
};

} // namespace ubik
