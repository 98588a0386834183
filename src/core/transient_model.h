/**
 * @file
 * Ubik's analytical transient model (§5.1).
 *
 * When a Vantage partition is upsized from s1 to s2 lines, every miss
 * grows it by one line and nothing is evicted from it until it reaches
 * s2. With a miss-probability curve p(s), inter-access time
 * T_access(s) = c + p(s)·M, and inter-miss time T_miss(s) =
 * c/p(s) + M, the transient obeys:
 *
 *   T_transient = sum_{s=s1}^{s2-1} (c/p(s) + M)
 *               <= (s2 - s1) · (c/p(s2) + M)               [upper bound]
 *
 *   L (cycles lost vs starting at s2)
 *               = M · sum_{s=s1}^{s2-1} (1 - p(s2)/p(s))
 *              <= M · (s2 - s1) · (1 - p(s2)/p(s1))        [upper bound]
 *
 * This module evaluates both the exact sums (at miss-curve
 * granularity) and the paper's conservative closed-form bounds, and
 * the symmetric "gain rate" of running above s_active that the
 * boosting logic needs.
 */

#pragma once

#include <cstdint>

#include "mon/miss_curve.h"
#include "mon/mlp_profiler.h"
#include "common/types.h"

namespace ubik {

/** Transient characteristics for one resizing. */
struct TransientEstimate
{
    /** Cycles for the partition to fill from s1 to s2. */
    double duration = 0;

    /** Cycles lost relative to starting at s2. */
    double lostCycles = 0;

    /** True when the app's miss rate at s2 is too low to ever fill
     *  the space (p(s2) ~ 0 makes the transient unbounded). */
    bool unbounded = false;
};

/** Analytical model over one app's miss curve and timing profile. */
class TransientModel
{
  public:
    /**
     * @param curve the app's miss curve over the counting interval
     *        (copied, so callers may pass temporaries)
     * @param interval_accesses LLC accesses in the same interval
     *        (converts curve values to miss probabilities)
     * @param profile the app's timing profile (c and M)
     */
    TransientModel(MissCurve curve, std::uint64_t interval_accesses,
                   const CoreProfile &profile);

    /** Miss probability at a given allocation. */
    double missProb(std::uint64_t lines) const;

    /** Paper's conservative closed-form upper bounds. */
    TransientEstimate upperBound(std::uint64_t s1, std::uint64_t s2) const;

    /** Exact sums at miss-curve granularity (for validation benches
     *  and the ablation study). */
    TransientEstimate exact(std::uint64_t s1, std::uint64_t s2) const;

    /**
     * Cycles gained per cycle of execution by holding s_big instead of
     * s_small (both in steady state): extra hits per access x M,
     * divided by the inter-access time at s_big.
     */
    double gainRate(std::uint64_t s_small, std::uint64_t s_big) const;

    /**
     * Fig 7's boost search: the smallest s_boost in
     * (s_active, cap], walked in `step`-line increments, whose gain
     * over s_active repays `lost` cycles by the deadline, counting
     * the fill from s_idle against it. s_active when nothing is lost;
     * 0 when no boost repays in time.
     */
    std::uint64_t solveBoost(std::uint64_t s_idle, std::uint64_t s_active,
                             std::uint64_t cap, Cycles deadline,
                             double lost, std::uint64_t step) const;

    double c() const { return c_; }
    double m() const { return m_; }

    /** Below this miss probability the space is considered unfillable. */
    static constexpr double kMinFillProb = 1e-5;

  private:
    MissCurve curve_;
    double accesses_;
    double c_;
    double m_;
};

} // namespace ubik
