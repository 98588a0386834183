/**
 * @file
 * Main-memory timing models and bandwidth partitioning.
 *
 * The paper models a fixed-latency memory (Table 2: 200 cycles,
 * "minimal load" on 3 DDR3-1066 channels) because bandwidth has no
 * inertia and is orthogonal to the cache-capacity transients Ubik
 * manages (§2.1, §6). Combining Ubik with bandwidth partitioning is
 * explicitly left to future work ("Ubik should be easy to combine
 * with bandwidth partitioning techniques for real-time systems
 * [21]"). This module builds that extension:
 *
 *  - FixedLatencyMemory reproduces the paper's model exactly (zero
 *    queueing delay, every miss costs the base latency).
 *  - ContendedMemory models the memory channels as a bank of
 *    earliest-free servers: each miss occupies one channel for a
 *    fixed occupancy, and queueing delay emerges under load. This is
 *    the interference source the paper abstracts away.
 *  - PartitionedMemory adds a per-app token-bucket regulator in
 *    front of the contended channels (a Jeong-et-al.-style QoS
 *    memory controller): each app is assigned a bandwidth share, and
 *    its misses are spaced so it cannot exceed that share, bounding
 *    the queueing other apps can suffer from it.
 *
 * All models are deterministic and purely event-driven: the caller
 * asks for the queueing delay of one miss issued at a given cycle,
 * and the model advances its channel state. Per-app statistics and
 * total channel utilization support the bandwidth ablation bench.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/enum_names.h"
#include "common/types.h"

namespace ubik {

/** Memory-system timing parameters. */
struct MemoryParams
{
    /** Independent memory channels (Table 2's machine has 3). */
    std::uint32_t channels = 3;

    /**
     * Cycles one miss occupies a channel (64B line transfer plus
     * command overhead). 24 cycles at 3.2GHz is 7.5ns per line, i.e.
     * ~8.5GB/s per channel — DDR3-1066 peak.
     */
    Cycles channelOccupancy = 24;
};

/** Per-app memory statistics. */
struct MemAppStats
{
    std::uint64_t requests = 0;

    /** Contention-added cycles (total and worst single miss). */
    Cycles totalQueueing = 0;
    Cycles maxQueueing = 0;

    /** Regulator-added cycles (PartitionedMemory only). */
    Cycles totalThrottle = 0;

    double meanQueueing() const
    {
        return requests == 0 ? 0.0
                             : static_cast<double>(totalQueueing) /
                                   static_cast<double>(requests);
    }
};

/**
 * Abstract memory system. access() is the single entry point: it
 * accounts one miss and returns the *extra* delay beyond the base
 * latency (zero when uncontended), so the paper's fixed-latency model
 * is the natural zero element.
 */
class MemorySystem
{
  public:
    MemorySystem(MemoryParams params, std::uint32_t num_apps);
    virtual ~MemorySystem() = default;

    /**
     * Account one LLC miss issued by `app` at cycle `now`.
     * @return contention + throttle delay, cycles (0 if uncontended)
     */
    Cycles access(AppId app, Cycles now);

    const MemoryParams &params() const { return params_; }

    const MemAppStats &appStats(AppId app) const;

    /** Total misses serviced. */
    std::uint64_t requests() const { return requests_; }

    /** Busy-cycle fraction of all channels over `elapsed` cycles. */
    double utilization(Cycles elapsed) const;

  protected:
    /** Model-specific delay computation; must advance channel state. */
    virtual Cycles queueingDelay(AppId app, Cycles now) = 0;

    /** Charge `cycles` of channel busy time (for utilization). */
    void chargeBusy(Cycles cycles) { busyCycles_ += cycles; }

    /** Record regulator delay in the per-app stats. */
    void chargeThrottle(AppId app, Cycles cycles);

    MemoryParams params_;

  private:
    std::vector<MemAppStats> stats_;
    std::uint64_t requests_ = 0;
    Cycles busyCycles_ = 0;
};

/** The paper's model: every miss costs the base latency, no queueing. */
class FixedLatencyMemory : public MemorySystem
{
  public:
    FixedLatencyMemory(MemoryParams params, std::uint32_t num_apps)
        : MemorySystem(params, num_apps)
    {
    }

  protected:
    Cycles queueingDelay(AppId app, Cycles now) override;
};

/**
 * Contended channels: each miss books the earliest feasible
 * occupancy-long slot across the channels; the wait until its slot
 * starts is the queueing delay. Channels keep short schedules of busy
 * intervals and fill gaps, so a request released in the future (by
 * the bandwidth regulator below) does not block an earlier request
 * from using an idle channel — the controller can reorder, as real
 * QoS memory controllers do.
 */
class ContendedMemory : public MemorySystem
{
  public:
    ContendedMemory(MemoryParams params, std::uint32_t num_apps);

  protected:
    Cycles queueingDelay(AppId app, Cycles now) override;

    /**
     * Book the earliest occupancy-long slot starting at or after
     * `release` on any channel.
     * @param now current cycle (monotone across calls; prunes state)
     * @param release earliest cycle the request may use a channel
     * @return slot start minus release (the queueing wait)
     */
    Cycles claimChannel(Cycles now, Cycles release);

  private:
    struct Booking
    {
        Cycles start;
        Cycles end;
    };

    /** Per-channel busy intervals, sorted, pruned below `now`. */
    std::vector<std::deque<Booking>> sched_;
};

/**
 * Contended channels behind per-app token-bucket regulators. Each app
 * gets a bandwidth share in (0, 1]; its misses are spaced at least
 * channelOccupancy / (channels * share) cycles apart before they may
 * claim a channel. Shares need not sum to 1 (undersubscription leaves
 * slack; oversubscription degrades gracefully into plain contention).
 */
class PartitionedMemory : public ContendedMemory
{
  public:
    PartitionedMemory(MemoryParams params, std::uint32_t num_apps);

    /**
     * Set an app's bandwidth share. Fatal unless 0 < share <= 1.
     * Defaults to 1/num_apps for every app.
     */
    void setShare(AppId app, double share);

    /**
     * Exempt an app from regulation: its misses go straight to the
     * channels (strict priority for latency-critical apps, as in
     * QoS-aware memory controllers). The app's bandwidth is then
     * protected by regulating everyone else, not by shaping it.
     */
    void setUnregulated(AppId app);

    bool unregulated(AppId app) const { return unregulated_.at(app); }

    double share(AppId app) const { return shares_.at(app); }

    /** Minimum inter-miss spacing the regulator enforces, cycles. */
    Cycles spacing(AppId app) const;

  protected:
    Cycles queueingDelay(AppId app, Cycles now) override;

  private:
    std::vector<double> shares_;
    std::vector<bool> unregulated_;
    std::vector<Cycles> nextAllowed_;
};

/** Memory-model selection for CmpConfig. */
enum class MemKind
{
    Fixed,       ///< the paper's fixed-latency model (default)
    Contended,   ///< channel contention, no QoS
    Partitioned, ///< channel contention + per-app bandwidth shares
};

template <>
struct EnumNames<MemKind>
{
    static constexpr const char *noun = "memory model";
    static constexpr EnumSpelling<MemKind> spellings[] = {
        {MemKind::Fixed, "fixed"},
        {MemKind::Contended, "contended"},
        {MemKind::Partitioned, "partitioned"},
    };
};

/** Factory used by the simulator. */
std::unique_ptr<MemorySystem>
makeMemorySystem(MemKind kind, MemoryParams params, std::uint32_t num_apps);

} // namespace ubik
