/**
 * @file
 * UCP's Lookahead allocation algorithm (Qureshi & Patt, MICRO-39
 * 2006, Algorithm 2).
 *
 * Greedy marginal-utility allocation that handles non-convex miss
 * curves: at each step it finds, across all partitions, the extension
 * (of any length) with the highest utility *per allocated unit*, and
 * commits it. This avoids the classic greedy trap where a cache-
 * fitting app (a step-shaped curve) never receives space because its
 * first marginal unit has zero utility.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mon/miss_curve.h"

namespace ubik {

/**
 * One partition's input to the allocator: a miss curve sampled at
 * bucket granularity and a weight converting misses to the objective
 * (e.g., the app's miss penalty M, giving cycles saved; 1.0 gives raw
 * hits as in original UCP).
 */
struct LookaheadInput
{
    /** curve[i] = expected misses with i buckets allocated. */
    std::vector<double> curve;

    /** Objective weight per miss avoided. */
    double weight = 1.0;

    /** Lower bound on this partition's allocation, buckets. */
    std::uint64_t minBuckets = 0;

    /** Expected misses with `b` buckets: the curve's last point past
     *  its end, 0 for an empty curve. */
    double missesAt(std::uint64_t b) const
    {
        if (curve.empty())
            return 0.0;
        return b < curve.size() ? curve[b] : curve.back();
    }
};

/**
 * Run Lookahead.
 *
 * @param inputs per-partition curves/weights
 * @param budget total buckets to distribute
 * @return buckets allocated per partition, summing to the budget (once
 *         utility is exhausted, the remainder goes to the first
 *         partition with the smallest allocation)
 */
std::vector<std::uint64_t> lookaheadAllocate(
    const std::vector<LookaheadInput> &inputs, std::uint64_t budget);

} // namespace ubik
