/**
 * @file
 * Core timing models (Table 2 / §7.1).
 *
 * The paper's results depend on core behaviour only through the
 * linear timing model its analysis uses: time between LLC accesses
 * T_access = c + p*M, where c comes from the core's IPC on hits and M
 * is the MLP-corrected stall per LLC miss. We model exactly that:
 *
 *  - OOO (Westmere-like): runs at the app's base IPC; L3 hit latency
 *    is largely hidden; an LLC miss stalls for memLatency / MLP.
 *  - In-order: IPC = 1 when hitting; every LLC access exposes the
 *    full L3 latency and every miss the full memory latency (§7.1's
 *    "IPC=1 except on L1 misses" simple core).
 */

#pragma once

#include <cstdint>
#include <limits>

#include "mon/mlp_profiler.h"
#include "common/types.h"

namespace ubik {

/** Static machine-level core parameters (Table 2). */
struct CoreParams
{
    bool outOfOrder = true;

    /** Shared L3 access latency, cycles. */
    Cycles l3Latency = 20;

    /** Main memory latency beyond the L3, cycles. */
    Cycles memLatency = 200;
};

/** Per-app dynamic traits the timing model consumes. */
struct CoreTraits
{
    double apki = 10.0;    ///< LLC accesses per kilo-instruction
    double baseIpc = 1.5;  ///< non-memory IPC (OOO only)
    double mlp = 2.0;      ///< long-miss memory-level parallelism
};

/**
 * Stateless timing calculator + per-interval counter accumulator for
 * one core.
 */
class CoreModel
{
  public:
    CoreModel(CoreParams params, CoreTraits traits);

    /** Compute cycles between LLC accesses (the paper's c), given the
     *  instructions executed per access. */
    Cycles gapCycles(double instr_per_access) const;

    /** Exposed latency of one LLC hit. */
    Cycles hitCycles() const;

    /** Exposed stall of one LLC miss (MLP-corrected for OOO). */
    Cycles missCycles() const;

    /**
     * Exposed portion of `extra` additional memory-latency cycles
     * (e.g., bandwidth-contention queueing): MLP hides part of it on
     * an OOO core exactly as it hides the base miss latency.
     */
    Cycles exposedMemDelay(Cycles extra) const;

    /**
     * Account one LLC access: advances counters and returns the
     * cycles consumed (gap + exposed memory time).
     * @param extra_mem already-exposed extra memory cycles to charge
     *        on a miss (from the memory model's queueing delay)
     */
    Cycles access(bool hit, double instr_per_access, Cycles extra_mem = 0);

    /** Account pure compute (no LLC accesses), e.g. a request with
     *  fewer accesses than segments. */
    Cycles compute(double instructions);

    /** Effective IPC used for pure compute. */
    double computeIpc() const;

    const IntervalCounters &interval() const { return interval_; }
    IntervalCounters takeInterval();

    const CoreParams &machineParams() const { return params_; }
    const CoreTraits &traits() const { return traits_; }

  private:
    CoreParams params_;
    CoreTraits traits_;
    IntervalCounters interval_;

    /** hitCycles() and missCycles(), fixed at construction. */
    Cycles hitStall_ = 0;
    Cycles missStall_ = 0;

    /**
     * access() memo, keyed on the last instructions-per-access value
     * (constant per batch core and per LC request): its gap cycles
     * and rounded instruction count. NaN never compares equal, so
     * the first access always fills it.
     */
    double memoIpa_ = std::numeric_limits<double>::quiet_NaN();
    Cycles memoGap_ = 0;
    std::uint64_t memoInstr_ = 0;
};

} // namespace ubik
