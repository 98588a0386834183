#include "policy/static_lc_policy.h"

#include "policy/policy_util.h"

namespace ubik {

StaticLcPolicy::StaticLcPolicy(PartitionScheme &scheme,
                               std::vector<AppMonitor> &apps)
    : PartitionPolicy(scheme, apps)
{
}

void
StaticLcPolicy::reconfigure(Cycles now)
{
    (void)now;
    const std::uint64_t total = scheme_.array().numLines();

    std::uint64_t lc_buckets = 0;
    for (AppId a = 0; a < apps_.size(); a++) {
        if (!apps_[a].latencyCritical)
            continue;
        std::uint64_t b = linesToBuckets(apps_[a].targetLines, total);
        scheme_.setTargetSize(partOf(a), bucketsToLines(b, total));
        lc_buckets += b;
    }

    setBatchTargets(
        lookaheadAllocate(batchInputs(), batchBudget(lc_buckets)));
}

} // namespace ubik
