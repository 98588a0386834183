/**
 * @file
 * Tests for the event queue behind Cmp's event loop. Its selection
 * order (earliest time, ties to the lowest core index) is part of
 * simulated behaviour, so the ordering is checked against a
 * reference scan over random updates.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace ubik {
namespace {

/** The legacy selection: first strictly-smaller wins. */
std::pair<Cycles, std::uint32_t>
referenceTop(const std::vector<Cycles> &t)
{
    Cycles best = t[0];
    std::uint32_t idx = 0;
    for (std::uint32_t i = 1; i < t.size(); i++) {
        if (t[i] < best) {
            best = t[i];
            idx = i;
        }
    }
    return {best, idx};
}

TEST(EventQueue, InitMatchesScan)
{
    std::vector<Cycles> t = {5, 3, 9, 3, 12};
    EventQueue q;
    q.init(t);
    EXPECT_EQ(q.topTime(), 3u);
    EXPECT_EQ(q.topIndex(), 1u); // tie between 1 and 3: lowest index
}

TEST(EventQueue, SingleElement)
{
    EventQueue q;
    q.init({42});
    EXPECT_EQ(q.topTime(), 42u);
    EXPECT_EQ(q.topIndex(), 0u);
    q.update(0, 7);
    EXPECT_EQ(q.topTime(), 7u);
}

TEST(EventQueue, RandomUpdatesMatchReferenceScan)
{
    Rng rng(777);
    for (std::uint32_t n : {2u, 3u, 6u, 17u}) {
        std::vector<Cycles> t(n);
        for (auto &x : t)
            x = rng.uniformInt(50);
        EventQueue q;
        q.init(t);
        for (int step = 0; step < 20000; step++) {
            auto [bt, bi] = referenceTop(t);
            ASSERT_EQ(q.topTime(), bt) << "step " << step;
            ASSERT_EQ(q.topIndex(), bi) << "step " << step;
            // Advance a core the way Cmp::run does: usually the one
            // just served, sometimes any other (request restarts).
            std::uint32_t c = rng.chance(0.8)
                                  ? bi
                                  : static_cast<std::uint32_t>(
                                        rng.uniformInt(n));
            // Ties are common in the event loop (coalesced wakeups),
            // so draw from a small range on purpose.
            Cycles nt = t[c] + rng.uniformInt(4);
            t[c] = nt;
            q.update(c, nt);
        }
    }
}

TEST(EventQueue, MonotoneDrainIsSorted)
{
    Rng rng(9);
    std::vector<Cycles> t(32);
    for (auto &x : t)
        x = rng.uniformInt(1000);
    EventQueue q;
    q.init(t);
    Cycles last = 0;
    for (int i = 0; i < 2000; i++) {
        Cycles now = q.topTime();
        EXPECT_GE(now, last);
        last = now;
        std::uint32_t c = q.topIndex();
        t[c] = now + 1 + rng.uniformInt(100);
        q.update(c, t[c]);
    }
}

} // namespace
} // namespace ubik
