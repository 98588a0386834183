/**
 * @file
 * StaticLC (§4): safe but inefficient. Each latency-critical app holds
 * a fixed partition of its target size at all times; the remaining
 * space is repartitioned across batch apps with UCP/Lookahead each
 * interval. Tail latencies are preserved by construction, but idle LC
 * apps hoard space.
 */

#pragma once

#include "policy/policy.h"

namespace ubik {

/** Fixed LC partitions + UCP over the batch remainder. */
class StaticLcPolicy : public PartitionPolicy
{
  public:
    StaticLcPolicy(PartitionScheme &scheme, std::vector<AppMonitor> &apps);

    void reconfigure(Cycles now) override;
};

} // namespace ubik
