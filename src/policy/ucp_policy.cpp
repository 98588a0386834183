#include "policy/ucp_policy.h"

#include "policy/policy_util.h"

namespace ubik {

UcpPolicy::UcpPolicy(PartitionScheme &scheme,
                     std::vector<AppMonitor> &apps)
    : PartitionPolicy(scheme, apps)
{
}

void
UcpPolicy::reconfigure(Cycles now)
{
    (void)now;
    const std::uint64_t total = scheme_.array().numLines();
    std::vector<LookaheadInput> inputs;
    inputs.reserve(apps_.size());
    for (const auto &mon : apps_)
        inputs.push_back(monitorInput(mon, total));
    auto alloc = lookaheadAllocate(inputs, kBuckets);
    for (AppId a = 0; a < apps_.size(); a++)
        scheme_.setTargetSize(partOf(a), bucketsToLines(alloc[a], total));
}

} // namespace ubik
