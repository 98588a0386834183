/**
 * @file
 * Shared helpers for partitioning policies: bucket quantization and
 * UMON-to-Lookahead curve conversion.
 *
 * All policies work in "buckets" of 1/256th of the cache (paper §5.1.2
 * uses B = 256), converting to lines only when programming the
 * enforcement scheme.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "policy/policy.h"
#include "policy/lookahead.h"

namespace ubik {

/** Number of allocation buckets (paper: B = 256). */
constexpr std::uint64_t kBuckets = 256;

/** Lines per bucket for a given cache size. */
inline std::uint64_t
linesPerBucket(std::uint64_t total_lines)
{
    std::uint64_t lpb = total_lines / kBuckets;
    return lpb ? lpb : 1;
}

/**
 * Build a Lookahead input from an app's UMON: a (kBuckets+1)-point
 * miss curve weighted by the app's miss penalty, so the allocator
 * maximizes saved stall cycles (the paper's miss-per-cycle objective,
 * UCP + MLP). Every app keeps at least one bucket to make progress.
 */
inline LookaheadInput
monitorInput(const AppMonitor &mon, std::uint64_t total_lines)
{
    LookaheadInput in;
    if (mon.umon) {
        MissCurve c = mon.umon->missCurve().resample(
            kBuckets + 1, total_lines);
        in.curve = c.values();
    }
    in.weight = mon.mlp ? mon.mlp->profile().missPenalty : 1.0;
    in.minBuckets = 1;
    return in;
}

/** Convert a bucket count to lines. */
inline std::uint64_t
bucketsToLines(std::uint64_t buckets, std::uint64_t total_lines)
{
    return buckets * linesPerBucket(total_lines);
}

/** Convert lines to buckets, rounding to nearest. */
inline std::uint64_t
linesToBuckets(std::uint64_t lines, std::uint64_t total_lines)
{
    std::uint64_t lpb = linesPerBucket(total_lines);
    return (lines + lpb / 2) / lpb;
}

} // namespace ubik
