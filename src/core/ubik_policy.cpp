#include "core/ubik_policy.h"

#include <algorithm>

#include "common/log.h"
#include "policy/policy_util.h"

namespace ubik {

namespace {

/** Proportional gain of the adaptive miss-slack controller. */
constexpr double kSlackGain = 0.1;

/** EWMA weight for idle/active duty-cycle estimates. */
constexpr double kDutyAlpha = 0.3;

} // namespace

UbikPolicy::UbikPolicy(PartitionScheme &scheme,
                       std::vector<AppMonitor> &apps, UbikConfig cfg)
    : PartitionPolicy(scheme, apps), cfg_(cfg), lc_(apps.size())
{
    // These values arrive from user configuration, so misconfiguration
    // is a usage error, not a ubik bug. More idle-size options than
    // buckets only repeat sizes, and each one costs a search per
    // reconfiguration.
    if (cfg_.slack < 0 || cfg_.slack >= 1.0)
        fatal("UbikPolicy: slack %f must be in [0, 1)", cfg_.slack);
    if (cfg_.idleOptions < 1)
        fatal("UbikPolicy: need at least one idle-size option");
    if (cfg_.idleOptions > kBuckets)
        fatal("UbikPolicy: %u idle-size options exceed the %llu buckets",
              cfg_.idleOptions, static_cast<unsigned long long>(kBuckets));
    if (!(cfg_.deboostGuard >= 0))
        fatal("UbikPolicy: deboost guard %g must be >= 0",
              cfg_.deboostGuard);
    const std::uint64_t total = scheme_.array().numLines();
    for (AppId a = 0; a < apps_.size(); a++) {
        if (!apps_[a].latencyCritical)
            continue;
        // Until the first reconfiguration we only know the target:
        // behave like StaticLC (safe).
        UbikLcState &st = lc_[a];
        st.sActive = st.sActiveStrict =
            bucketsToLines(std::max<std::uint64_t>(
                               1, linesToBuckets(apps_[a].targetLines,
                                                 total)),
                           total);
        st.sIdle = st.sBoost = st.sBoostStrict = st.sActive;
        st.deboost = DeboostMonitor(cfg_.deboostGuard);
        scheme_.setTargetSize(partOf(a), st.sActive);
    }
}

std::uint64_t
UbikPolicy::boostCap() const
{
    std::uint64_t n_lc = 0;
    for (const auto &mon : apps_)
        if (mon.latencyCritical)
            n_lc++;
    ubik_assert(n_lc > 0);
    return scheme_.array().numLines() / n_lc;
}

std::uint64_t
UbikPolicy::lcBuckets() const
{
    const std::uint64_t total = scheme_.array().numLines();
    std::uint64_t b = 0;
    for (AppId a = 0; a < apps_.size(); a++)
        if (apps_[a].latencyCritical)
            b += linesToBuckets(scheme_.targetSize(partOf(a)), total);
    return b;
}

void
UbikPolicy::applyBatchAllocation()
{
    if (table_.valid())
        setBatchTargets(table_.allocationAt(batchBudget(lcBuckets())));
}

void
UbikPolicy::resizeLc(AppId app, std::uint64_t lines)
{
    scheme_.setTargetSize(partOf(app), lines);
    applyBatchAllocation();
}

void
UbikPolicy::sizeLcApp(AppId app)
{
    AppMonitor &mon = apps_[app];
    UbikLcState &st = lc_[app];
    const std::uint64_t total = scheme_.array().numLines();
    const std::uint64_t step = linesPerBucket(total);

    // Quantized target; never below one bucket.
    std::uint64_t target = bucketsToLines(
        std::max<std::uint64_t>(1, linesToBuckets(mon.targetLines, total)),
        total);
    st.sActiveStrict = target;

    if (!mon.umon || !mon.mlp || !mon.mlp->profile().valid ||
        mon.interval.llcAccesses == 0) {
        // No signal (app idle all interval, or warming up): stay safe.
        st.sActive = target;
        st.sIdle = st.sBoost = st.sBoostStrict = target;
        return;
    }

    MissCurve curve = mon.umon->missCurve(kBuckets + 1);
    curve.enforceMonotone();
    TransientModel model(curve, mon.interval.llcAccesses,
                         mon.mlp->profile());

    const std::uint64_t cap = boostCap();
    const Cycles deadline = mon.deadline;

    // --- Slack mode: shrink s_active within the adaptive miss slack.
    std::uint64_t s_active = target;
    if (cfg_.slack > 0 && st.missSlack > 0 && mon.intervalRequests > 0) {
        double allowance = st.missSlack *
                           static_cast<double>(mon.intervalRequests);
        double at_target = curve.missesAtLines(target);
        for (std::uint64_t s = step; s < target; s += step) {
            if (curve.missesAtLines(s) - at_target <= allowance) {
                s_active = s;
                break;
            }
        }
    }
    st.sActive = s_active;

    // --- Option search (Fig 7): idle sizes from s_active down to 0,
    // keeping the feasible option with the best batch cost-benefit.
    struct Option
    {
        std::uint64_t sIdle;
        std::uint64_t sBoost;
        double gain;
    };
    auto search = [&](std::uint64_t s_act) -> Option {
        Option best{s_act, s_act, 0.0};
        std::uint64_t b_act = linesToBuckets(s_act, total);
        std::uint64_t lc_others = lcBuckets() -
            linesToBuckets(scheme_.targetSize(partOf(app)), total);
        std::uint64_t base_budget = batchBudget(lc_others + b_act);
        double boosted_frac = std::min(
            1.0, static_cast<double>(st.activations) *
                     static_cast<double>(deadline) /
                     std::max<double>(1.0,
                                      static_cast<double>(intervalLen_)));
        for (std::uint32_t i = 1; i <= cfg_.idleOptions; i++) {
            std::uint64_t b_idle =
                b_act * (cfg_.idleOptions - i) / cfg_.idleOptions;
            std::uint64_t s_idle = bucketsToLines(b_idle, total);
            if (s_idle >= best.sIdle && i > 1)
                continue; // quantization produced a duplicate
            TransientEstimate tr = model.upperBound(s_idle, s_act);
            if (tr.unbounded)
                break; // cannot refill s_act at all: stop downsizing
            std::uint64_t s_boost = model.solveBoost(
                s_idle, s_act, cap, deadline, tr.lostCycles, step);
            if (s_boost == 0)
                break; // infeasible; lower s_idle only gets worse
            if (!table_.valid())
                continue;
            // Cost-benefit on the batch apps' aggregate miss curve.
            std::uint64_t freed = b_act - b_idle;
            std::uint64_t b_boost = linesToBuckets(s_boost, total);
            std::uint64_t boost_extra =
                b_boost > b_act ? b_boost - b_act : 0;
            double benefit =
                (table_.missesAt(base_budget) -
                 table_.missesAt(base_budget + freed)) *
                st.idleFrac;
            std::uint64_t shrunk = base_budget > boost_extra
                                       ? base_budget - boost_extra
                                       : 0;
            double cost = (table_.missesAt(shrunk) -
                           table_.missesAt(base_budget)) *
                          boosted_frac;
            double gain = benefit - cost;
            if (gain > best.gain) {
                best.sIdle = s_idle;
                best.sBoost = s_boost;
                best.gain = gain;
            }
        }
        return best;
    };

    Option chosen = search(s_active);
    st.sIdle = chosen.sIdle;
    st.sBoost = chosen.sBoost;

    // Conservative fallback sizes for the slack watermark.
    if (s_active != target) {
        Option strict = search(target);
        st.sBoostStrict = strict.sBoost;
    } else {
        st.sBoostStrict = chosen.sBoost;
    }
}

void
UbikPolicy::reconfigure(Cycles now)
{
    const std::uint64_t total = scheme_.array().numLines();
    intervalLen_ = lastReconfigure_ < now ? now - lastReconfigure_
                                          : intervalLen_;
    lastReconfigure_ = now;

    // 1. Batch inputs and the repartitioning table, anchored at the
    //    expected batch budget (duty-cycle-weighted LC usage).
    std::vector<LookaheadInput> inputs = batchInputs();
    double expected_lc = 0;
    for (AppId a = 0; a < apps_.size(); a++) {
        if (!apps_[a].latencyCritical)
            continue;
        const UbikLcState &st = lc_[a];
        double b_idle = static_cast<double>(
            linesToBuckets(st.sIdle, total));
        double b_act = static_cast<double>(
            linesToBuckets(st.sActive, total));
        expected_lc += st.idleFrac * b_idle + (1 - st.idleFrac) * b_act;
    }
    if (!inputs.empty())
        table_.build(inputs,
                     batchBudget(static_cast<std::uint64_t>(expected_lc)),
                     kBuckets);

    // 2. Per-LC sizing, then apply the size matching the app's state.
    for (AppId a = 0; a < apps_.size(); a++) {
        if (!apps_[a].latencyCritical)
            continue;
        sizeLcApp(a);
        UbikLcState &st = lc_[a];
        std::uint64_t lines = st.sActive;
        if (!apps_[a].active)
            lines = st.sIdle;
        else if (st.boosted)
            lines = st.sBoost;
        scheme_.setTargetSize(partOf(a), lines);
        st.activations = 0;
    }

    // 3. Batch partitions from the table at the actual budget.
    applyBatchAllocation();
}

void
UbikPolicy::onActive(AppId app, Cycles now)
{
    ubik_assert(apps_[app].latencyCritical);
    UbikLcState &st = lc_[app];
    st.activations++;

    // Fold the just-finished idle period into the duty-cycle EWMA.
    if (now > st.lastEdge && intervalLen_ > 0) {
        double frac = std::min(
            1.0, static_cast<double>(now - st.lastEdge) /
                     static_cast<double>(intervalLen_));
        st.idleFrac += kDutyAlpha * (frac - st.idleFrac);
    }
    st.lastEdge = now;

    if (st.sIdle < st.sActive) {
        st.boosted = true;
        st.boostStart = now;
        double watermark = 0.0;
        if (cfg_.slack > 0)
            watermark = std::max(0.1, st.missSlackFrac);
        st.deboost.arm(st.sActive, watermark);
        resizeLc(app, st.sBoost);
    } else {
        resizeLc(app, st.sActive);
    }
}

void
UbikPolicy::onIdle(AppId app, Cycles now)
{
    ubik_assert(apps_[app].latencyCritical);
    UbikLcState &st = lc_[app];
    if (now > st.lastEdge && intervalLen_ > 0) {
        double frac = std::min(
            1.0, static_cast<double>(now - st.lastEdge) /
                     static_cast<double>(intervalLen_));
        // Active period ended: pull idleFrac down-weighted by it.
        st.idleFrac += kDutyAlpha * ((1.0 - frac) - st.idleFrac) *
                       frac;
    }
    st.lastEdge = now;
    st.boosted = false;
    st.deboost.disarm();
    resizeLc(app, st.sIdle);
}

void
UbikPolicy::onAccess(AppId app, const UmonProbe &probe, bool miss,
                     Cycles now)
{
    if (!apps_[app].latencyCritical)
        return;
    UbikLcState &st = lc_[app];

    // Without the accurate de-boosting circuit, the only way down
    // from s_boost is deadline expiry (§5.1.1's ablated variant).
    // Checked before the armed() gate: the monitor may have disarmed
    // itself on an (ignored) early-recovery event.
    Cycles deadline = apps_[app].deadline;
    if (!cfg_.accurateDeboost && st.boosted && deadline > 0 &&
        now >= st.boostStart + deadline) {
        deadlineDeboosts_++;
        st.boosted = false;
        st.deboost.disarm();
        resizeLc(app, st.sActive);
        return;
    }

    if (!st.deboost.armed() || !apps_[app].umon)
        return;
    DeboostEvent ev = st.deboost.observe(*apps_[app].umon, probe, miss);
    switch (ev) {
      case DeboostEvent::None:
        return;
      case DeboostEvent::Recovered:
        if (!cfg_.accurateDeboost)
            return; // circuit ablated: hold the boost
        // Transient cost repaid early: give the boost space back.
        deboostInterrupts_++;
        st.boosted = false;
        resizeLc(app, st.sActive);
        return;
      case DeboostEvent::Watermark:
        // This request is suffering far beyond the slack model:
        // fall back to the conservative no-slack sizes.
        watermarkInterrupts_++;
        st.sActive = st.sActiveStrict;
        st.sBoost = st.sBoostStrict;
        st.boosted = true;
        st.deboost.arm(st.sActive, 0.0);
        resizeLc(app, st.sBoost);
        return;
    }
}

void
UbikPolicy::onRequestComplete(AppId app, Cycles latency)
{
    if (cfg_.slack <= 0 || !apps_[app].latencyCritical)
        return;
    AppMonitor &mon = apps_[app];
    UbikLcState &st = lc_[app];
    if (mon.deadline == 0)
        return;

    // Adaptive miss slack (§5.2): proportional controller steering the
    // per-request extra-miss budget so observed latencies stay within
    // deadline * (1 + slack).
    double m = mon.mlp && mon.mlp->profile().valid
                   ? mon.mlp->profile().missPenalty
                   : 200.0;
    double max_slack = cfg_.slack * static_cast<double>(mon.deadline) /
                       std::max(1.0, m);
    double allowed = static_cast<double>(mon.deadline) *
                     (1.0 + cfg_.slack);
    double err = (allowed - static_cast<double>(latency)) / allowed;
    err = std::clamp(err, -5.0, 1.0);
    st.missSlack = std::clamp(
        st.missSlack + kSlackGain * err * max_slack * 0.2, 0.0,
        max_slack);

    // Watermark fraction: the extra-miss budget relative to the
    // misses a typical request incurs (bounded so the watermark stays
    // meaningful).
    double per_req_misses =
        mon.intervalRequests > 0
            ? static_cast<double>(mon.interval.llcMisses) /
                  static_cast<double>(mon.intervalRequests)
            : 1.0;
    st.missSlackFrac = std::clamp(
        st.missSlack / std::max(1.0, per_req_misses), 0.1, 4.0);
}

} // namespace ubik
