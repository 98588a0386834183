#include "policy/onoff_policy.h"

#include "policy/policy_util.h"

namespace ubik {

OnOffPolicy::OnOffPolicy(PartitionScheme &scheme,
                         std::vector<AppMonitor> &apps)
    : PartitionPolicy(scheme, apps)
{
}

std::uint64_t
OnOffPolicy::currentBatchBudget() const
{
    const std::uint64_t total = scheme_.array().numLines();
    std::uint64_t lc = 0;
    for (const auto &mon : apps_)
        if (mon.latencyCritical && mon.active)
            lc += linesToBuckets(mon.targetLines, total);
    return batchBudget(lc);
}

void
OnOffPolicy::reconfigure(Cycles now)
{
    (void)now;
    const std::uint64_t total = scheme_.array().numLines();
    const std::vector<LookaheadInput> inputs = batchInputs();

    // Precompute the batch split for every possible active subset of
    // LC apps (distinct budgets only; with equal LC targets this is
    // the paper's N+1 cases).
    precomputed_.clear();
    std::vector<AppId> lc_ids;
    for (AppId a = 0; a < apps_.size(); a++)
        if (apps_[a].latencyCritical)
            lc_ids.push_back(a);
    std::uint32_t subsets = 1u << lc_ids.size();
    for (std::uint32_t mask = 0; mask < subsets; mask++) {
        std::uint64_t lc_buckets = 0;
        for (std::size_t i = 0; i < lc_ids.size(); i++)
            if (mask & (1u << i))
                lc_buckets += linesToBuckets(
                    apps_[lc_ids[i]].targetLines, total);
        std::uint64_t budget = batchBudget(lc_buckets);
        if (!precomputed_.count(budget) && !inputs.empty())
            precomputed_[budget] = lookaheadAllocate(inputs, budget);
    }

    applyCurrent();
}

void
OnOffPolicy::applyCurrent()
{
    for (AppId a = 0; a < apps_.size(); a++) {
        if (!apps_[a].latencyCritical)
            continue;
        std::uint64_t lines = apps_[a].active ? apps_[a].targetLines : 0;
        scheme_.setTargetSize(partOf(a), lines);
    }
    // Before the first reconfigure (or with no batch apps) there is
    // no split: keep the previous targets.
    auto it = precomputed_.find(currentBatchBudget());
    if (it != precomputed_.end())
        setBatchTargets(it->second);
}

void
OnOffPolicy::onActive(AppId app, Cycles now)
{
    (void)app;
    (void)now;
    applyCurrent();
}

void
OnOffPolicy::onIdle(AppId app, Cycles now)
{
    (void)app;
    (void)now;
    applyCurrent();
}

} // namespace ubik
