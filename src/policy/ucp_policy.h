/**
 * @file
 * Utility-based cache partitioning (UCP) enhanced with MLP profiling,
 * the paper's representative conventional policy (§4).
 *
 * Every reconfiguration interval it reads all UMONs, weights each miss
 * curve by the app's measured miss penalty (miss-per-cycle objective),
 * and runs Lookahead over the whole cache. LC apps receive no special
 * treatment — their low average utilization reads as low utility,
 * which is precisely the failure mode the paper demonstrates.
 */

#pragma once

#include "policy/policy.h"

namespace ubik {

/** UCP + MLP over every app, LC and batch alike. */
class UcpPolicy : public PartitionPolicy
{
  public:
    UcpPolicy(PartitionScheme &scheme, std::vector<AppMonitor> &apps);

    void reconfigure(Cycles now) override;
};

} // namespace ubik
