/**
 * @file
 * Feedback: a long-term-adaptation QoS baseline (§2.1's strawman).
 *
 * Prior QoS frameworks (Cook et al. [10], METE [49], PACORA [5])
 * close a feedback loop around *observed* performance: measure each
 * interval, then grow the latency-critical app's allocation when it
 * misses its target and shrink it when it is comfortable. The paper
 * argues this class of controllers cannot protect tail latency —
 * adaptation arrives one reconfiguration interval late, so every
 * burst first pays degraded latency that lands straight in the tail,
 * and the controller oscillates between hoarding and under-
 * provisioning. FeedbackPolicy implements a representative
 * proportional controller on the observed interval tail so the
 * evaluation can quantify that argument against Ubik, which instead
 * *predicts* transients before they happen.
 *
 * Batch apps share the remaining space via UCP/Lookahead, as in the
 * other policies.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "stats/latency_recorder.h"
#include "policy/policy.h"

namespace ubik {

/**
 * Proportional feedback on observed per-interval tail latency.
 * Representative of long-term-adaptation QoS schemes; expected to
 * fail on short-term tails (that is the point).
 */
class FeedbackPolicy : public PartitionPolicy
{
  public:
    /** Proportional gain on the relative tail error. */
    static constexpr double kGain = 0.5;

    /** Shrink only below this fraction of the deadline (deadband
     *  against oscillation). */
    static constexpr double kComfortFrac = 0.8;

    /** Largest per-interval allocation step, in buckets. */
    static constexpr std::uint64_t kMaxStepBuckets = 32;

    /** Tail percentile the controller tracks. */
    static constexpr double kTailPct = 95.0;

    FeedbackPolicy(PartitionScheme &scheme, std::vector<AppMonitor> &apps);

    void reconfigure(Cycles now) override;
    void onRequestComplete(AppId app, Cycles latency) override;

    /** Current allocation of an LC app, buckets (for tests). */
    std::uint64_t allocBuckets(AppId app) const
    {
        return alloc_.at(app);
    }

  private:
    /** Per-app allocation, buckets (batch entries unused). */
    std::vector<std::uint64_t> alloc_;

    /** Per-app latencies observed in the current interval. */
    std::vector<LatencyRecorder> window_;
};

} // namespace ubik
