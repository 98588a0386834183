/**
 * @file
 * The "LRU" scheme: an unmanaged shared cache. The policy does
 * nothing; pair it with the SharedLru replacement scheme. This is the
 * conventional-CMP baseline in the paper's evaluation.
 */

#pragma once

#include "policy/policy.h"

namespace ubik {

/** No-op policy for an unpartitioned LRU cache. */
class LruPolicy : public PartitionPolicy
{
  public:
    LruPolicy(PartitionScheme &scheme, std::vector<AppMonitor> &apps);

    void reconfigure(Cycles now) override;
};

} // namespace ubik
