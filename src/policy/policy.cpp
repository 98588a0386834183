#include "policy/policy.h"

#include "policy/policy_util.h"

namespace ubik {

namespace {

std::vector<AppId>
batchApps(const std::vector<AppMonitor> &apps)
{
    std::vector<AppId> ids;
    for (AppId a = 0; a < apps.size(); a++)
        if (!apps[a].latencyCritical)
            ids.push_back(a);
    return ids;
}

} // namespace

PartitionPolicy::PartitionPolicy(PartitionScheme &scheme,
                                 std::vector<AppMonitor> &apps)
    : scheme_(scheme), apps_(apps), batchIds_(batchApps(apps))
{
}

std::vector<LookaheadInput>
PartitionPolicy::batchInputs() const
{
    const std::uint64_t total = scheme_.array().numLines();
    std::vector<LookaheadInput> inputs;
    inputs.reserve(batchIds_.size());
    for (AppId a : batchIds_)
        inputs.push_back(monitorInput(apps_[a], total));
    return inputs;
}

std::uint64_t
PartitionPolicy::batchBudget(std::uint64_t lc_buckets)
{
    return lc_buckets < kBuckets ? kBuckets - lc_buckets : 0;
}

void
PartitionPolicy::setBatchTargets(const std::vector<std::uint64_t> &alloc)
{
    const std::uint64_t total = scheme_.array().numLines();
    for (std::size_t i = 0; i < batchIds_.size(); i++)
        scheme_.setTargetSize(partOf(batchIds_[i]),
                              bucketsToLines(alloc[i], total));
}

} // namespace ubik
