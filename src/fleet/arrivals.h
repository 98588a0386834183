/**
 * @file
 * Open-loop cluster arrival model for the fleet layer: millions of
 * users driving thousands of servers.
 *
 * The datacenter story (§7.1) starts from a user population, not a
 * per-server knob: a service with U million users generates an
 * aggregate request rate, a load balancer spreads it across the
 * fleet, and every server sees an offered LC load that follows the
 * same global dynamics (diurnal swings, flash crowds — LoadProfile)
 * plus per-server imbalance from imperfect balancing.
 *
 * ClusterArrivals is that decomposition as a pure function: the run
 * span is cut into slices, each slice samples the shared LoadProfile
 * at its midpoint, and each (slice, server) pair gets a deterministic
 * mean-one lognormal imbalance multiplier from its own Rng::jobStream
 * — so the per-server load grid is bit-identical across worker
 * counts, processes, and machines, which is what lets the fleet model
 * ride on the persistent result cache.
 *
 * Loads are expressed as the paper's per-LC-instance offered load
 * (lambda * mean service time): `nominalLoad` is the cluster-average
 * load at profile scale 1, and the user population only changes the
 * *denomination* (implied requests/sec per user), never the simulated
 * dynamics — doubling users at fixed fleet size is a capacity
 * planning question the report surfaces, not a different simulation.
 */

#pragma once

#include <cstdint>

#include "workload/load_profile.h"

namespace ubik {

/** The cluster-load side of a FleetSpec (pure data, serializable). */
struct ArrivalSpec
{
    /** User population, millions (denominates implied per-user
     *  request rates in the report; does not change the dynamics). */
    double users = 1.0;

    /** Cluster-average per-LC-instance offered load at profile
     *  scale 1 — keep it equal to a load the scenario's mixes list
     *  so per-server results come straight from the sweep cache. */
    double nominalLoad = 0.2;

    /** Time slices sampling the load profile over the run span. */
    std::uint32_t slices = 4;

    /** Lognormal sigma of the per-(slice, server) load multiplier
     *  (imperfect balancing); 0 = every server sees the exact
     *  cluster-average load. */
    double imbalance = 0.0;

    /** Shared cluster-load dynamics (diurnal / flash crowd / ...). */
    LoadProfile profile;

    /** fatal() (naming `what`) unless the parameters make sense. */
    void validate(const char *what) const;
};

/**
 * The evaluated per-(slice, server) load grid for one fleet. All
 * methods are pure functions of (spec, servers) — no internal state,
 * safe to share.
 */
class ClusterArrivals
{
  public:
    /** Clamp bounds on the per-server load: below kMinLoad the queue
     *  model degenerates, above kMaxLoad open-loop FIFO queues leave
     *  the regime the paper's §3.3 discussion covers. */
    static constexpr double kMinLoad = 0.02;
    static constexpr double kMaxLoad = 0.95;

    ClusterArrivals(const ArrivalSpec &spec, std::uint32_t servers);

    std::uint32_t slices() const { return spec_.slices; }
    const ArrivalSpec &spec() const { return spec_; }

    /** Midpoint of slice `s`, as a fraction of the run span. */
    double sliceMid(std::uint32_t s) const;

    /** Cluster-wide profile multiplier at slice `s`'s midpoint. */
    double scaleAt(std::uint32_t s) const;

    /** Offered LC load server `srv` sees during slice `s`:
     *  nominalLoad x profile scale x imbalance multiplier, clamped
     *  to [kMinLoad, kMaxLoad]. Deterministic in (spec, s, srv). */
    double serverLoad(std::uint32_t s, std::uint32_t srv) const;

    /** Requests/sec the whole cluster serves at profile scale 1,
     *  given the LC apps' mean service time (simulated cycles at
     *  `scale`) and the total LC instance count. */
    double clusterRequestRate(double mean_service_cycles, double scale,
                              std::uint64_t lc_instances) const;

  private:
    ArrivalSpec spec_;
    std::uint32_t servers_;
};

} // namespace ubik
