#include "fleet/arrivals.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"

namespace ubik {

namespace {

/** Seed of the per-(slice, server) imbalance streams. */
constexpr std::uint64_t kImbalanceSeed = 1;

} // namespace

void
ArrivalSpec::validate(const char *what) const
{
    if (users <= 0)
        fatal("%s: users must be > 0 (millions)", what);
    if (nominalLoad < ClusterArrivals::kMinLoad ||
        nominalLoad > ClusterArrivals::kMaxLoad)
        fatal("%s: nominal_load %.3f outside [%.2f, %.2f]", what,
              nominalLoad, ClusterArrivals::kMinLoad,
              ClusterArrivals::kMaxLoad);
    if (slices == 0)
        fatal("%s: slices must be >= 1", what);
    if (imbalance < 0 || imbalance > 2.0)
        fatal("%s: imbalance sigma %.3f outside [0, 2]", what,
              imbalance);
    profile.validate(what);
}

ClusterArrivals::ClusterArrivals(const ArrivalSpec &spec,
                                 std::uint32_t servers)
    : spec_(spec), servers_(servers)
{
    spec_.validate("fleet arrivals");
    if (servers_ == 0)
        fatal("fleet arrivals: servers must be >= 1");
}

double
ClusterArrivals::sliceMid(std::uint32_t s) const
{
    return (static_cast<double>(s) + 0.5) /
           static_cast<double>(spec_.slices);
}

double
ClusterArrivals::scaleAt(std::uint32_t s) const
{
    // Churn windows evaluate to rate 0; a whole cluster never goes
    // dark, so floor the multiplier at the clamp the per-server load
    // gets anyway.
    return std::max(spec_.profile.scaleAt(sliceMid(s)), 0.0);
}

double
ClusterArrivals::serverLoad(std::uint32_t s, std::uint32_t srv) const
{
    double load = spec_.nominalLoad * scaleAt(s);
    if (spec_.imbalance > 0) {
        // Mean-one lognormal: exp(sigma z - sigma^2/2). The stream
        // index is a pure function of (slice, server), so the grid
        // never depends on evaluation order.
        Rng rng = Rng::jobStream(
            kImbalanceSeed,
            static_cast<std::uint64_t>(s) * servers_ + srv);
        double sigma = spec_.imbalance;
        load *= std::exp(sigma * rng.normal() - sigma * sigma / 2);
    }
    return std::min(kMaxLoad, std::max(kMinLoad, load));
}

double
ClusterArrivals::clusterRequestRate(double mean_service_cycles,
                                    double scale,
                                    std::uint64_t lc_instances) const
{
    // Per instance: lambda = load / E[S]; E[S] in real seconds is
    // (simulated cycles x scale) / clock.
    double mean_service_sec =
        mean_service_cycles * scale / kClockHz;
    if (mean_service_sec <= 0)
        return 0;
    return spec_.nominalLoad / mean_service_sec *
           static_cast<double>(lc_instances);
}

} // namespace ubik
