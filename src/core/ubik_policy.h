/**
 * @file
 * Ubik: inertia-aware dynamic cache partitioning (§5).
 *
 * Strict Ubik gives each latency-critical (LC) app the performance of
 * a constant partition of size s_active (its target). When the app
 * idles, its partition shrinks to s_idle; on the next idle->active
 * edge it is boosted to s_boost > s_active, sized so that — by the
 * app's deadline — the cycles gained running above s_active repay the
 * conservative upper bound on cycles lost warming up from s_idle
 * (TransientModel, §5.1). The accurate de-boosting circuit
 * (DeboostMonitor) detects early repayment and returns the extra
 * space to batch apps.
 *
 * Ubik-with-slack (§5.2) tolerates a configurable fractional tail-
 * latency degradation: an adaptive miss-slack proportional controller
 * converts the latency slack into a per-request extra-miss budget,
 * which lets s_active sit below the target size for apps that are not
 * cache-sensitive. A low watermark in the de-boost circuit catches
 * rare requests that suffer far beyond the model and falls back to
 * the conservative no-slack sizes.
 *
 * Batch apps are managed as in §5.1.2: Lookahead at each coarse
 * interval over the average batch budget, plus a RepartitionTable for
 * fast incremental reallocation on every LC resize.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/deboost_monitor.h"
#include "core/transient_model.h"
#include "policy/policy.h"
#include "policy/repartition_table.h"

namespace ubik {

/** Tunables for UbikPolicy; defaults follow the paper. */
struct UbikConfig
{
    /** Tail-latency slack as a fraction of the deadline (0 = strict,
     *  paper evaluates 0 / 0.01 / 0.05 / 0.10). */
    double slack = 0.0;

    /** Number of s_idle options evaluated per LC app (paper: 16). */
    std::uint32_t idleOptions = 16;

    /** De-boost guard, in would-be misses (absorbs UMON noise). */
    double deboostGuard = 16.0;

    /**
     * Use the accurate de-boosting circuit (§5.1.1). When false, the
     * boost is held until the deadline expires instead of being
     * released as soon as the transient cost is repaid — the
     * hardware-ablated variant the paper argues against ("waiting
     * until the deadline ... would improve the latency-critical
     * application's performance unnecessarily while hurting batch
     * throughput"). The slack watermark fallback is unaffected.
     */
    bool accurateDeboost = true;
};

/** Per-LC-app controller state. */
struct UbikLcState
{
    /** Allocation whose performance must be matched, lines. In strict
     *  mode this is the target; with slack it may be lower. */
    std::uint64_t sActive = 0;

    /** Allocation while idle, lines (<= sActive). */
    std::uint64_t sIdle = 0;

    /** Allocation while boosted, lines (>= sActive). */
    std::uint64_t sBoost = 0;

    /** Conservative no-slack sizes the watermark falls back to. */
    std::uint64_t sActiveStrict = 0;
    std::uint64_t sBoostStrict = 0;

    /** Accurate de-boosting circuit. */
    DeboostMonitor deboost;

    /** Whether the partition currently sits at sBoost. */
    bool boosted = false;

    /** Cycle the current boost began (deadline-wait de-boosting). */
    Cycles boostStart = 0;

    /** Adaptive per-request extra-miss budget (slack mode). */
    double missSlack = 0.0;

    /** Watermark threshold as a fraction of typical request misses. */
    double missSlackFrac = 0.1;

    /** EWMA fraction of time this app is idle. */
    double idleFrac = 0.5;

    /** Idle->active transitions seen in the current interval. */
    std::uint32_t activations = 0;

    /** Cycle of the last idle/active transition. */
    Cycles lastEdge = 0;
};

/** The Ubik partitioning policy (strict and slack variants). */
class UbikPolicy : public PartitionPolicy
{
  public:
    UbikPolicy(PartitionScheme &scheme, std::vector<AppMonitor> &apps,
               UbikConfig cfg = {});

    void reconfigure(Cycles now) override;
    void onActive(AppId app, Cycles now) override;
    void onIdle(AppId app, Cycles now) override;
    void onAccess(AppId app, const UmonProbe &probe, bool miss,
                  Cycles now) override;
    void onRequestComplete(AppId app, Cycles latency) override;

    /** Introspection for tests and the transient-ablation bench. */
    const UbikLcState &lcState(AppId app) const { return lc_.at(app); }

    const UbikConfig &config() const { return cfg_; }

    /** De-boost interrupts raised so far (early recoveries). */
    std::uint64_t deboostInterrupts() const { return deboostInterrupts_; }

    /** Watermark interrupts raised so far (slack fallbacks). */
    std::uint64_t watermarkInterrupts() const
    {
        return watermarkInterrupts_;
    }

    /** De-boosts performed by deadline expiry (accurateDeboost off,
     *  or requests whose circuit never fired before the deadline). */
    std::uint64_t deadlineDeboosts() const { return deadlineDeboosts_; }

  private:
    /**
     * Choose s_idle / s_boost / s_active for one LC app from its miss
     * curve, timing profile, deadline, and the batch apps' aggregate
     * marginal utility (Fig 7's feasibility + cost-benefit search).
     */
    void sizeLcApp(AppId app);

    /** Apply an LC partition resize and rebalance batch partitions
     *  through the repartitioning table. */
    void resizeLc(AppId app, std::uint64_t lines);

    /** Recompute the batch budget and apply the table's allocation. */
    void applyBatchAllocation();

    /** Buckets currently assigned to LC partitions (from targets). */
    std::uint64_t lcBuckets() const;

    /** Per-LC-app boost cap: total lines / number of LC apps. */
    std::uint64_t boostCap() const;

    UbikConfig cfg_;
    std::vector<UbikLcState> lc_;   ///< indexed by AppId (batch unused)
    RepartitionTable table_;
    Cycles lastReconfigure_ = 0;
    Cycles intervalLen_ = 0;        ///< length of the last interval
    std::uint64_t deboostInterrupts_ = 0;
    std::uint64_t watermarkInterrupts_ = 0;
    std::uint64_t deadlineDeboosts_ = 0;
};

} // namespace ubik
