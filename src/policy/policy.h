/**
 * @file
 * Partitioning-policy interface and the per-app monitoring view.
 *
 * The simulator owns the monitoring hardware (UMON, MLP profiler,
 * performance counters) and exposes it to the active policy through
 * AppMonitor. The policy sets partition targets on the enforcement
 * scheme; partition id for app a is a+1 (partition 0 is Vantage's
 * unmanaged region and stays unallocated).
 *
 * Event hooks mirror the paper's software/hardware split: periodic
 * coarse-grained reconfiguration (§5.1.2), idle/active runtime calls
 * (§5.1.3), a per-access hook for the accurate de-boosting circuit,
 * and per-request completion for the slack feedback controller.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "cache/scheme.h"
#include "mon/mlp_profiler.h"
#include "mon/umon.h"
#include "policy/lookahead.h"
#include "common/types.h"

namespace ubik {

/** Monitoring state and static configuration for one app/core. */
struct AppMonitor
{
    /** Utility monitor; owned by the simulator. */
    Umon *umon = nullptr;

    /** MLP / timing profiler; owned by the simulator. */
    MlpProfiler *mlp = nullptr;

    /** Counters accumulated since the last reconfiguration. */
    IntervalCounters interval;

    /** Requests completed since the last reconfiguration. */
    std::uint64_t intervalRequests = 0;

    /** True for latency-critical apps, false for batch. */
    bool latencyCritical = false;

    /** Whether the app currently has work (active) or is idle. */
    bool active = true;

    /** LC only: target partition size (s_active in strict Ubik). */
    std::uint64_t targetLines = 0;

    /** LC only: QoS deadline, cycles (95th pct latency at target). */
    Cycles deadline = 0;

    /** EWMA of observed idle-period lengths, cycles (for Ubik's
     *  cost-benefit analysis). */
    double avgIdleCycles = 0;
};

/** Abstract partitioning policy (the paper's software runtime). */
class PartitionPolicy
{
  public:
    /** Reads which apps are latency-critical: mark them first. */
    PartitionPolicy(PartitionScheme &scheme, std::vector<AppMonitor> &apps);

    virtual ~PartitionPolicy() = default;

    /**
     * Periodic coarse-grained reconfiguration (paper: every 50 ms).
     * Called after the simulator refreshes each AppMonitor's interval
     * counters and MLP profile; the policy reads UMON curves, sets
     * targets, and the simulator then resets interval state.
     */
    virtual void reconfigure(Cycles now) = 0;

    /** App transitioned idle -> active (a request arrived). */
    virtual void onActive(AppId app, Cycles now)
    {
        (void)app;
        (void)now;
    }

    /** App transitioned active -> idle (queue drained). */
    virtual void onIdle(AppId app, Cycles now)
    {
        (void)app;
        (void)now;
    }

    /**
     * One LLC access by an LC app (drives the de-boosting circuit).
     * @param probe the app's UMON response for this address
     * @param miss whether the real LLC missed
     */
    virtual void
    onAccess(AppId app, const UmonProbe &probe, bool miss, Cycles now)
    {
        (void)app;
        (void)probe;
        (void)miss;
        (void)now;
    }

    /** A request completed with the given total latency. */
    virtual void onRequestComplete(AppId app, Cycles latency)
    {
        (void)app;
        (void)latency;
    }

    /** Partition backing app a. */
    static PartId partOf(AppId a) { return a + 1; }

  protected:
    // The batch side of every LC-aware policy (StaticLC, OnOff and
    // Feedback, §4; Ubik, §5.1.2): batch apps share whatever the LC
    // partitions leave, split by UCP's Lookahead.

    /** Each batch app's Lookahead input, in batchIds_ order. */
    std::vector<LookaheadInput> batchInputs() const;

    /** Buckets left to batch apps when LC partitions hold
     *  `lc_buckets` (0 if they hold the whole cache). */
    static std::uint64_t batchBudget(std::uint64_t lc_buckets);

    /** Size batch app batchIds_[i]'s partition to alloc[i] buckets. */
    void setBatchTargets(const std::vector<std::uint64_t> &alloc);

    PartitionScheme &scheme_;
    std::vector<AppMonitor> &apps_;

    /** The batch (not latency-critical) apps, in app order. */
    const std::vector<AppId> batchIds_;
};

} // namespace ubik
