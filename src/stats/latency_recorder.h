/**
 * @file
 * Request-latency collection and the paper's tail metric.
 *
 * The paper reports "tail latency" as the *mean of all requests beyond
 * a percentile* (§3.2), not the percentile itself, so that adaptive
 * schemes cannot game the metric by degrading only the requests past
 * the measured percentile. tailMean() implements exactly that; we
 * default to the 95th percentile like the paper.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace ubik {

/** The nearest-rank method: the 1-indexed rank of percentile `pct`
 *  among `n` >= 1 sorted samples, ceil(pct/100 * n) clamped to
 *  [1, n]. */
std::size_t nearestRank(double pct, std::size_t n);

/** Collects per-request latencies and derives distribution metrics. */
class LatencyRecorder
{
  public:
    LatencyRecorder() = default;

    /** Record one completed request's latency, in cycles. */
    void record(Cycles latency);

    /** Merge another recorder's samples (e.g., across app instances). */
    void merge(const LatencyRecorder &other);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Mean latency over all requests, cycles. */
    double mean() const;

    /**
     * Latency at the given percentile (0 < pct < 100), cycles.
     * Uses the nearest-rank method on the sorted samples.
     */
    double percentile(double pct) const;

    /**
     * The paper's tail metric: mean latency of all requests at or
     * beyond the given percentile (default 95), cycles.
     */
    double tailMean(double pct = 95.0) const;

    /** Empirical CDF: fraction of requests with latency <= x. */
    double cdf(Cycles x) const;

    /** Sorted copy of the samples (for CDF dumps). */
    std::vector<Cycles> sorted() const;

    void clear();

  private:
    void ensureSorted() const;

    std::vector<Cycles> samples_;
    mutable std::vector<Cycles> sortedCache_;
    mutable bool sortedValid_ = false;
};

} // namespace ubik
