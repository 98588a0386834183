/**
 * @file
 * Offline Ubik sizing advisor.
 *
 * Answers "what would Ubik do for my workload?" without running the
 * full simulator: given a miss curve (from a captured trace via
 * TraceAnalyzer, or from production UMON readings), the linear timing
 * parameters (c, M — §5.1), a target size, and a deadline, the
 * advisor enumerates the same 16 s_idle candidates strict Ubik would
 * (§5.1.1) and, for each, the smallest feasible s_boost (searched in
 * steps of a 16th of the target), the transient-length and
 * lost-cycle upper bounds, and the space freed.
 *
 * This is the capacity-planning view of the policy: operators can
 * read off how much cache a colocated batch tier would gain at each
 * deadline before deploying, and which deadlines make downsizing
 * infeasible (the TightDeadlinePreventsDownsizing regime).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/transient_model.h"
#include "mon/miss_curve.h"
#include "mon/mlp_profiler.h"
#include "common/types.h"

namespace ubik {

/** Inputs the advisor needs (all offline-obtainable). */
struct AdvisorInput
{
    /** Miss curve over partition sizes (misses per interval). */
    MissCurve curve;

    /** LLC accesses in the interval the curve was measured over. */
    std::uint64_t intervalAccesses = 0;

    /** Timing profile: c, M, access intensity (§5.1). */
    CoreProfile profile;

    /** The app's target allocation, lines (s_active in strict mode). */
    std::uint64_t targetLines = 0;

    /** QoS deadline, cycles (95th pct latency at the target size). */
    Cycles deadline = 0;

    /** Largest boost the advisor may recommend (paper: total LLC
     *  lines / number of LC apps). 0 = unlimited. */
    std::uint64_t boostCap = 0;
};

/** One evaluated (s_idle, s_boost) candidate. */
struct SizingOption
{
    std::uint64_t sIdle = 0;

    /** Smallest boost that repays the transient by the deadline;
     *  meaningful only when feasible. */
    std::uint64_t sBoost = 0;

    bool feasible = false;

    /** Upper bound on the s_idle -> s_boost fill time, cycles. */
    double transientCycles = 0;

    /** Upper bound on cycles lost vs staying at the target. */
    double lostCycles = 0;

    /** Lines a batch tier gains while the app idles at s_idle. */
    std::uint64_t freedLines = 0;
};

/** The advisor's full answer. */
struct AdvisorReport
{
    /** All candidates, deepest idle size last. */
    std::vector<SizingOption> options;

    /** Deepest feasible candidate (the most space freed); equals the
     *  target when no downsizing is feasible. */
    SizingOption best;

    /** True if any candidate with sIdle < target was feasible. */
    bool canDownsize = false;
};

/**
 * Evaluate strict-Ubik sizing options offline.
 * fatal() on unusable inputs (empty curve, zero accesses or target).
 */
AdvisorReport advise(const AdvisorInput &in);

} // namespace ubik
