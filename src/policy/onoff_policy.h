/**
 * @file
 * OnOff (§4): efficient but unsafe. An LC app gets its full target
 * allocation while active and zero while idle; freed space goes to the
 * batch apps. Batch allocations for every possible LC-active subset
 * are precomputed at each coarse interval so idle/active transitions
 * are cheap. Ignoring inertia — the warm-up transient on every
 * idle->active edge — is what wrecks its tail latency.
 */

#pragma once

#include <map>

#include "policy/policy.h"

namespace ubik {

/** On/off LC allocations with precomputed batch splits. */
class OnOffPolicy : public PartitionPolicy
{
  public:
    OnOffPolicy(PartitionScheme &scheme, std::vector<AppMonitor> &apps);

    void reconfigure(Cycles now) override;
    void onActive(AppId app, Cycles now) override;
    void onIdle(AppId app, Cycles now) override;

  private:
    /** Apply LC targets for the current active set and the matching
     *  precomputed batch allocation. */
    void applyCurrent();

    /** Batch budget (buckets) for the current active set. */
    std::uint64_t currentBatchBudget() const;

    /** budget (buckets) -> per-batch-app buckets. */
    std::map<std::uint64_t, std::vector<std::uint64_t>> precomputed_;
};

} // namespace ubik
