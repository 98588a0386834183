#include "mem/memory_system.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"

namespace ubik {

MemorySystem::MemorySystem(MemoryParams params, std::uint32_t num_apps)
    : params_(params), stats_(num_apps)
{
    if (params_.channels == 0)
        fatal("MemorySystem: need at least one channel");
    if (params_.channelOccupancy == 0)
        fatal("MemorySystem: channel occupancy must be positive");
}

Cycles
MemorySystem::access(AppId app, Cycles now)
{
    ubik_assert(app < stats_.size());
    Cycles delay = queueingDelay(app, now);
    MemAppStats &s = stats_[app];
    s.requests++;
    s.totalQueueing += delay;
    s.maxQueueing = std::max(s.maxQueueing, delay);
    requests_++;
    return delay;
}

const MemAppStats &
MemorySystem::appStats(AppId app) const
{
    return stats_.at(app);
}

double
MemorySystem::utilization(Cycles elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    double capacity = static_cast<double>(elapsed) *
                      static_cast<double>(params_.channels);
    return std::min(1.0, static_cast<double>(busyCycles_) / capacity);
}

void
MemorySystem::chargeThrottle(AppId app, Cycles cycles)
{
    stats_.at(app).totalThrottle += cycles;
}

Cycles
FixedLatencyMemory::queueingDelay(AppId app, Cycles now)
{
    (void)app;
    (void)now;
    // Still account channel time so utilization is meaningful.
    chargeBusy(params_.channelOccupancy);
    return 0;
}

ContendedMemory::ContendedMemory(MemoryParams params, std::uint32_t num_apps)
    : MemorySystem(params, num_apps), sched_(params.channels)
{
}

Cycles
ContendedMemory::claimChannel(Cycles now, Cycles release)
{
    ubik_assert(release >= now);
    const Cycles occ = params_.channelOccupancy;

    Cycles best_start = std::numeric_limits<Cycles>::max();
    std::uint32_t best_ch = 0;
    std::size_t best_pos = 0;

    for (std::uint32_t ch = 0; ch < sched_.size(); ch++) {
        auto &s = sched_[ch];
        // Bookings fully in the past can no longer conflict: every
        // future request is released at or after `now`.
        while (!s.empty() && s.front().end <= now)
            s.pop_front();

        // First-fit: earliest gap of >= occ cycles at/after release.
        Cycles cand = release;
        std::size_t pos = 0;
        for (const Booking &b : s) {
            if (cand + occ <= b.start)
                break;
            cand = std::max(cand, b.end);
            pos++;
        }
        if (cand < best_start) {
            best_start = cand;
            best_ch = ch;
            best_pos = pos;
        }
        if (best_start == release)
            break; // cannot do better
    }

    auto &s = sched_[best_ch];
    s.insert(s.begin() + static_cast<std::ptrdiff_t>(best_pos),
             Booking{best_start, best_start + occ});
    chargeBusy(occ);
    return best_start - release;
}

Cycles
ContendedMemory::queueingDelay(AppId app, Cycles now)
{
    (void)app;
    return claimChannel(now, now);
}

PartitionedMemory::PartitionedMemory(MemoryParams params,
                                     std::uint32_t num_apps)
    : ContendedMemory(params, num_apps),
      shares_(num_apps, num_apps > 0 ? 1.0 / num_apps : 1.0),
      unregulated_(num_apps, false), nextAllowed_(num_apps, 0)
{
}

void
PartitionedMemory::setShare(AppId app, double share)
{
    if (app >= shares_.size())
        fatal("PartitionedMemory::setShare: app %u out of range", app);
    if (!(share > 0.0 && share <= 1.0))
        fatal("PartitionedMemory::setShare: share %f not in (0, 1]", share);
    shares_[app] = share;
    unregulated_[app] = false;
}

void
PartitionedMemory::setUnregulated(AppId app)
{
    if (app >= shares_.size())
        fatal("PartitionedMemory::setUnregulated: app %u out of range",
              app);
    unregulated_[app] = true;
}

Cycles
PartitionedMemory::spacing(AppId app) const
{
    double total_rate = static_cast<double>(params_.channels) /
                        static_cast<double>(params_.channelOccupancy);
    double app_rate = total_rate * shares_.at(app);
    return std::max<Cycles>(
        1, static_cast<Cycles>(std::llround(1.0 / app_rate)));
}

Cycles
PartitionedMemory::queueingDelay(AppId app, Cycles now)
{
    // Unregulated (latency-critical) apps bypass the regulator and
    // contend directly; their bandwidth is protected by everyone
    // else's regulation.
    if (unregulated_[app])
        return claimChannel(now, now);

    // Token-bucket regulator: delay the miss until the app's next
    // allowed issue slot, then contend for a channel as usual.
    Cycles allowed = std::max(now, nextAllowed_[app]);
    nextAllowed_[app] = allowed + spacing(app);
    Cycles throttle = allowed - now;
    chargeThrottle(app, throttle);
    return throttle + claimChannel(now, allowed);
}

std::unique_ptr<MemorySystem>
makeMemorySystem(MemKind kind, MemoryParams params, std::uint32_t num_apps)
{
    switch (kind) {
      case MemKind::Fixed:
        return std::make_unique<FixedLatencyMemory>(params, num_apps);
      case MemKind::Contended:
        return std::make_unique<ContendedMemory>(params, num_apps);
      case MemKind::Partitioned:
        return std::make_unique<PartitionedMemory>(params, num_apps);
    }
    panic("bad MemKind");
}

} // namespace ubik
