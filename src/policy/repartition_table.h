/**
 * @file
 * Repartitioning table (paper §5.1.2, Fig 8): fast incremental
 * reallocation of batch partitions when an LC partition resizes.
 *
 * Running Lookahead on every idle/active transition would be too
 * expensive, so at each coarse reconfiguration the runtime builds a
 * table, indexed by the batch budget in buckets, whose entry names the
 * batch partition that gains (going up) or loses (going down) the
 * marginal bucket. Resizing from budget b1 to b2 walks the entries in
 * between — a few table lookups instead of an optimization run.
 *
 * Built greedily around the Lookahead solution at the expected batch
 * budget: below it, buckets are removed from the partition with the
 * smallest marginal utility; above it, added to the partition with the
 * largest.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "policy/lookahead.h"
#include "common/types.h"

namespace ubik {

/** Incremental batch reallocation table. */
class RepartitionTable
{
  public:
    RepartitionTable() = default;

    /**
     * Build the table.
     *
     * @param inputs batch partitions' bucket-granularity miss curves
     *        (weights applied as in Lookahead)
     * @param baseline_budget expected batch budget, buckets; Lookahead
     *        runs here and the table grows greedily both ways
     * @param max_budget table extent (total cache buckets)
     */
    void build(const std::vector<LookaheadInput> &inputs,
               std::uint64_t baseline_budget, std::uint64_t max_budget);

    bool valid() const { return maxBudget_ > 0; }

    /** Per-partition buckets at the given batch budget. */
    std::vector<std::uint64_t> allocationAt(std::uint64_t budget) const;

    /**
     * Expected aggregate batch misses at the given budget (from the
     * input curves; Ubik's cost-benefit analysis reads this).
     */
    double missesAt(std::uint64_t budget) const;

    /**
     * Which partition's allocation changes between budgets b and b+1.
     */
    std::size_t marginalPart(std::uint64_t b) const;

  private:
    /** marginal_[b] = partition gaining the (b+1)-th bucket. */
    std::vector<std::size_t> marginal_;
    /** misses_[b] = total batch misses at budget b. */
    std::vector<double> misses_;
    std::uint64_t maxBudget_ = 0;
    std::size_t numParts_ = 0;
};

} // namespace ubik
