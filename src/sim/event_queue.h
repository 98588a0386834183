/**
 * @file
 * Per-core next-event times with the earliest one cached.
 *
 * Cmp::run asks for the earliest core event once per simulated event
 * and then reschedules the core it served. The queue keeps the times
 * in one flat array and, on every update, re-finds the minimum with a
 * branch-free scan. At the core counts the simulator runs (one core
 * for baselines, six for mixes, 24 at most in the scalability
 * ablation) that scan is a handful of compare-and-move instructions
 * over one or two host cache lines, cheaper than sifting an indexed
 * binary heap and chasing its position index.
 *
 * Determinism: the scan takes the first strictly smaller time, so
 * ties go to the lowest core index — the selection order of the
 * original linear scan over cores 0..N-1, which is part of simulated
 * behaviour (pinned by tests/sim/hotpath_golden_test.cpp; ordering
 * unit-tested against a reference scan in
 * tests/sim/event_queue_test.cpp).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace ubik {

/** Earliest of (event time, index) with O(n) branch-free updates. */
class EventQueue
{
  public:
    /** (Re)load the queue with `times[i]` for index i. */
    void
    init(const std::vector<Cycles> &times)
    {
        times_ = times;
        rescan();
    }

    bool empty() const { return times_.empty(); }

    /** Earliest event time. */
    Cycles topTime() const { return topTime_; }

    /** Index owning the earliest event (lowest index on ties). */
    std::uint32_t topIndex() const { return topIdx_; }

    /** Change index idx's event time and re-find the earliest. */
    void
    update(std::uint32_t idx, Cycles t)
    {
        ubik_assert(idx < times_.size());
        times_[idx] = t;
        rescan();
    }

  private:
    /** First strictly smaller time wins: lowest index on ties. */
    void
    rescan()
    {
        const std::size_t n = times_.size();
        if (n == 0)
            return;
        const Cycles *t = times_.data();
        Cycles best = t[0];
        std::uint32_t idx = 0;
        for (std::uint32_t i = 1; i < n; i++) {
            const bool take = t[i] < best;
            best = take ? t[i] : best;
            idx = take ? i : idx;
        }
        topTime_ = best;
        topIdx_ = idx;
    }

    std::vector<Cycles> times_;
    Cycles topTime_ = 0;
    std::uint32_t topIdx_ = 0;
};

} // namespace ubik
