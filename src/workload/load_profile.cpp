#include "workload/load_profile.h"

#include <cmath>

#include "common/hex.h"
#include "common/log.h"

namespace ubik {

namespace {

/** splitmix64: the same stream expander Rng seeds with — burst
 *  windows are a pure function of (burstSeed, index), never of any
 *  simulation state. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Burst window `i`'s start, uniform over [0, 1 - duration]. */
double
burstStart(const LoadProfile &p, std::uint32_t i)
{
    double u =
        static_cast<double>(splitmix64(p.burstSeed + i) >> 11) *
        (1.0 / 9007199254740992.0); // 2^-53: uniform in [0, 1)
    return u * (1.0 - p.duration);
}

} // namespace

double
LoadProfile::scaleAt(double t) const
{
    switch (kind) {
      case LoadProfileKind::Constant:
        return 1.0;
      case LoadProfileKind::Diurnal:
        // Keeps oscillating past the nominal span: a run that takes
        // longer than nominal (queueing) still sees smooth load.
        return 1.0 +
               amplitude * std::sin(2.0 * M_PI * periods * t);
      case LoadProfileKind::FlashCrowd:
        return (t >= start && t < start + duration) ? multiplier
                                                    : 1.0;
      case LoadProfileKind::Bursts:
        for (std::uint32_t i = 0; i < bursts; i++) {
            double s = burstStart(*this, i);
            if (t >= s && t < s + duration)
                return multiplier;
        }
        return 1.0;
      case LoadProfileKind::Churn:
        return (t >= start && t < start + duration) ? 0.0 : 1.0;
    }
    panic("bad LoadProfileKind");
}

double
LoadProfile::nextActiveFrac(double t) const
{
    if (kind != LoadProfileKind::Churn)
        return t;
    return (t >= start && t < start + duration) ? start + duration : t;
}

void
LoadProfile::validate(const char *what) const
{
    switch (kind) {
      case LoadProfileKind::Constant:
        return;
      case LoadProfileKind::Diurnal:
        if (!(amplitude > 0 && amplitude <= 1))
            fatal("%s: diurnal amplitude must be in (0, 1] (got %g); "
                  "1 already swings the rate down to zero",
                  what, amplitude);
        if (!(periods > 0))
            fatal("%s: diurnal periods must be > 0 (got %g)", what,
                  periods);
        return;
      case LoadProfileKind::FlashCrowd:
      case LoadProfileKind::Churn:
        if (!(start >= 0 && start < 1))
            fatal("%s: window start must be in [0, 1) of the run "
                  "span (got %g)",
                  what, start);
        if (!(duration > 0 && start + duration <= 1))
            fatal("%s: window [start, start+duration) must fit in "
                  "the run span (start %g, duration %g)",
                  what, start, duration);
        if (kind == LoadProfileKind::FlashCrowd && !(multiplier > 1))
            fatal("%s: flash-crowd multiplier must be > 1 (got %g)",
                  what, multiplier);
        return;
      case LoadProfileKind::Bursts:
        if (bursts == 0)
            fatal("%s: bursts must be >= 1", what);
        if (!(duration > 0 && duration <= 0.5))
            fatal("%s: burst duration must be in (0, 0.5] of the run "
                  "span (got %g)",
                  what, duration);
        if (!(multiplier > 1))
            fatal("%s: burst multiplier must be > 1 (got %g)", what,
                  multiplier);
        return;
    }
    panic("bad LoadProfileKind");
}

std::string
LoadProfile::canonical() const
{
    // Doubles as bit patterns: canonical and lossless, mirroring
    // ServiceDistribution::canonical() and the result cache's own
    // key encoding.
    std::string out = enumName(kind);
    switch (kind) {
      case LoadProfileKind::Constant:
        break;
      case LoadProfileKind::Diurnal:
        out += ":" + hexDouble(amplitude) + ":" + hexDouble(periods);
        break;
      case LoadProfileKind::FlashCrowd:
        out += ":" + hexDouble(start) + ":" + hexDouble(duration) + ":" +
               hexDouble(multiplier);
        break;
      case LoadProfileKind::Bursts:
        out += ":" + std::to_string(bursts) + ":" + hexDouble(duration) +
               ":" + hexDouble(multiplier) + ":" +
               std::to_string(burstSeed);
        break;
      case LoadProfileKind::Churn:
        out += ":" + hexDouble(start) + ":" + hexDouble(duration);
        break;
    }
    return out;
}

bool
operator==(const LoadProfile &a, const LoadProfile &b)
{
    // Canonical form compares exactly the kind-relevant parameters,
    // which is the equality the cache keys and JSON round-trips need.
    return a.canonical() == b.canonical();
}

} // namespace ubik
