/**
 * @file
 * Progress-delivery contract: ParallelSweep serializes on_done calls,
 * so a stateful callback needs no locking of its own. The callback
 * below keeps unsynchronized state on purpose — under TSan
 * (-fsanitize=thread in CMAKE_CXX_FLAGS) this test is also a
 * data-race detector for the delivery path.
 */

#include <gtest/gtest.h>

#include "sim/parallel_sweep.h"
#include "support/cache_test_util.h"

using namespace ubik;
using namespace ubik::test;

TEST(SweepProgress, DeliveriesAreSerializedAndMonotonic)
{
    std::vector<SweepJob> jobs = cacheTestJobs();
    MixRunner runner(cacheTestCfg());
    ParallelSweep sweep(runner, 4);

    // Deliberately unsynchronized callback state: the engine's
    // serialization guarantee is what keeps this race-free.
    std::size_t count = 0;
    bool monotonic = true;
    std::vector<MixRunResult> results =
        sweep.run(jobs, [&](const SweepProgress &p) {
            static thread_local int depth = 0;
            // Concurrent delivery would interleave these unguarded
            // read-modify-writes and break the counts below (and trip
            // TSan); same-thread reentrancy would show in `depth`.
            depth++;
            EXPECT_EQ(depth, 1);
            count++;
            if (p.done != count)
                monotonic = false;
            EXPECT_EQ(p.done, p.hits + p.computed + p.remote);
            EXPECT_EQ(p.total, jobs.size());
            EXPECT_EQ(p.remote, 0u); // not a fleet sweep
            depth--;
        });

    EXPECT_TRUE(monotonic) << "done must increase by 1 per delivery";
    EXPECT_EQ(count, jobs.size());
    EXPECT_EQ(results.size(), jobs.size());
}
