/**
 * @file
 * The built-in scenario registry: every mix-sweeping paper figure
 * and ablation as a named ScenarioSpec, which `ubik_run` enumerates,
 * parameterizes and runs by name.
 *
 * Specs here must expand to exactly the mixes and schemes the legacy
 * bench loops built — the fig9 equivalence is golden-tested against
 * the raw MixRunner/ParallelSweep path
 * (tests/integration/scenario_golden_test.cpp).
 *
 * Figures that do not sweep the mix matrix (Fig 1/2/4, the transient
 * and queueing ablations, microbenchmarks) keep their dedicated
 * benches: they interrogate a single Cmp or an analytical model, not
 * a scheme x mix x seed grid, so there is nothing for a spec to
 * declare.
 */

#include "sim/scenario.h"

#include <cstdio>

namespace ubik {

namespace {

ScenarioSpec
fig9Spec()
{
    ScenarioSpec s;
    s.name = "fig9";
    s.title = "Fig 9 / Table 3: scheme comparison over the mix matrix";
    s.schemes = paperSchemes(0.05);
    s.reports = {
        {ReportKind::Distributions, "fig9a-low-load", LoadBand::Low},
        {ReportKind::Averages, "table3-low-load", LoadBand::Low},
        {ReportKind::Distributions, "fig9b-high-load", LoadBand::High},
        {ReportKind::Averages, "table3-high-load", LoadBand::High},
    };
    s.notes =
        "Expected shape (paper Fig 9 / Table 3): LRU, UCP, and OnOff "
        "show heavy worst-case tail degradation (paper: up to ~2.3x); "
        "StaticLC and Ubik hold degradation ~1 (Ubik within its 5% "
        "slack); batch speedup ordering UCP ~ OnOff >= Ubik > LRU > "
        "StaticLC > 1.";
    return s;
}

ScenarioSpec
fig10Spec()
{
    ScenarioSpec s;
    s.name = "fig10";
    s.title = "Fig 10: per-app results, OOO cores";
    s.schemes = paperSchemes(0.05);
    s.mixesPerLcCap = 2;
    s.reports = {
        {ReportKind::PerApp, "fig10", LoadBand::All},
        {ReportKind::Averages, "fig10-avg", LoadBand::All},
    };
    s.notes =
        "Expected shape (paper Fig 10): xapian is insensitive at low "
        "load but UCP hurts it at high load; LRU/UCP/OnOff violate "
        "deadlines on masstree, shore, specjbb (inertia-heavy); Ubik "
        "matches StaticLC's tails while beating its speedups, and "
        "wins outright on xapian and moses.";
    return s;
}

ScenarioSpec
fig11Spec()
{
    ScenarioSpec s;
    s.name = "fig11";
    s.title = "Fig 11: per-app results, in-order cores";
    s.schemes = paperSchemes(0.05);
    s.mixesPerLcCap = 1;
    s.ooo = false;
    s.reports = {
        {ReportKind::PerApp, "fig11", LoadBand::All},
        {ReportKind::Averages, "fig11-avg", LoadBand::All},
    };
    s.notes =
        "Expected shape (paper Fig 11): versus Fig 10, best-effort "
        "schemes degrade tails *more* (in-order cores cannot hide "
        "misses) while all schemes achieve *higher* weighted "
        "speedups; StaticLC and Ubik still hold tail latency, with "
        "Ubik's speedup well above StaticLC's.";
    return s;
}

ScenarioSpec
fig12Spec()
{
    ScenarioSpec s;
    s.name = "fig12";
    s.title = "Fig 12: Ubik slack sensitivity";
    for (double slack : {0.0, 0.01, 0.05, 0.10}) {
        SchemeUnderTest sut;
        char label[32];
        std::snprintf(label, sizeof(label), "slack=%g%%",
                      slack * 100);
        sut.label = label;
        sut.policy = PolicyKind::Ubik;
        sut.slack = slack;
        s.schemes.push_back(sut);
    }
    s.mixesPerLcCap = 1;
    s.reports = {
        {ReportKind::PerApp, "fig12", LoadBand::All},
        {ReportKind::Averages, "fig12-avg", LoadBand::All},
    };
    s.notes =
        "Expected shape (paper Fig 12): slack=0 strictly maintains "
        "tails at the lowest speedup (paper: +9.9%); growing slack "
        "monotonically buys batch throughput (paper: 13.1%, 16.0%, "
        "17.0% at 1/5/10%) while tail degradation stays within the "
        "configured bound.";
    return s;
}

ScenarioSpec
fig13Spec()
{
    ScenarioSpec s;
    s.name = "fig13";
    s.title =
        "Fig 13: partitioning-scheme sensitivity (Ubik, 5% slack)";
    s.schemes = {
        {"WayPart-SA16", SchemeKind::WayPart, ArrayKind::SA16,
         PolicyKind::Ubik, 0.05},
        {"WayPart-SA64", SchemeKind::WayPart, ArrayKind::SA64,
         PolicyKind::Ubik, 0.05},
        {"Vantage-SA16", SchemeKind::Vantage, ArrayKind::SA16,
         PolicyKind::Ubik, 0.05},
        {"Vantage-SA64", SchemeKind::Vantage, ArrayKind::SA64,
         PolicyKind::Ubik, 0.05},
        {"Vantage-Z4/52", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::Ubik, 0.05},
    };
    s.mixesPerLcCap = 1;
    s.reports = {
        {ReportKind::Distributions, "fig13", LoadBand::All},
        {ReportKind::Averages, "fig13-avg", LoadBand::All},
    };
    s.notes =
        "Expected shape (paper Fig 13): way-partitioning misses "
        "deadlines (coarse sizes, slow unpredictable transients), "
        "SA16 hurts even under Vantage (forced evictions), Vantage "
        "on SA64 comes close to the zcache, and Vantage on Z4/52 is "
        "best on both axes.";
    return s;
}

ScenarioSpec
deboostSpec()
{
    ScenarioSpec s;
    s.name = "ablation-deboost";
    s.title = "Ablation: accurate de-boosting vs deadline-wait";
    SchemeUnderTest base;
    base.policy = PolicyKind::Ubik;

    base.label = "Ubik-strict";
    base.slack = 0.0;
    base.ubik.accurateDeboost = true;
    s.schemes.push_back(base);

    base.label = "Ubik-strict-noDB";
    base.ubik.accurateDeboost = false;
    s.schemes.push_back(base);

    base.label = "Ubik-5%";
    base.slack = 0.05;
    base.ubik.accurateDeboost = true;
    s.schemes.push_back(base);

    base.label = "Ubik-5%-noDB";
    base.ubik.accurateDeboost = false;
    s.schemes.push_back(base);

    s.source = MixSource::CacheHungry;
    s.reports = {
        {ReportKind::PerApp, "deboost", LoadBand::All},
        {ReportKind::Averages, "deboost-avg", LoadBand::All},
        {ReportKind::UbikInterrupts, "deboost-irq", LoadBand::All},
    };
    s.notes =
        "Expected shape (§5.1.1): tail degradations match across "
        "variants (the boost never ends *early*, so the QoS "
        "guarantee is unaffected), while the circuit converts "
        "deadline-wait de-boosts into much earlier recoveries — the "
        "irq table should show early-recovery dominating with the "
        "circuit and only deadline expiries without it. Returning "
        "that space sooner buys batch throughput; the margin scales "
        "with how long boosts outlive their transients (small at the "
        "scaled-down deadlines, growing at UBIK_SCALE=1).";
    return s;
}

ScenarioSpec
feedbackSpec()
{
    ScenarioSpec s;
    s.name = "ablation-feedback";
    s.title = "Ablation: feedback control vs prediction";
    {
        SchemeUnderTest sut;
        sut.label = "Feedback";
        sut.policy = PolicyKind::Feedback;
        sut.slack = 0.0;
        s.schemes.push_back(sut);

        sut.label = "StaticLC";
        sut.policy = PolicyKind::StaticLc;
        s.schemes.push_back(sut);

        sut.label = "Ubik";
        sut.policy = PolicyKind::Ubik;
        sut.slack = 0.05;
        s.schemes.push_back(sut);
    }
    s.mixesPerLcCap = 2;
    s.reports = {
        {ReportKind::PerApp, "feedback", LoadBand::All},
        {ReportKind::Averages, "feedback-avg", LoadBand::All},
    };
    s.notes =
        "Expected shape (§2.1): Feedback reclaims idle LC space like "
        "Ubik does, so its batch speedups beat StaticLC — but its "
        "tail degradations are looser and its worst mixes violate "
        "the deadline, because the controller reacts one interval "
        "after each burst. Ubik matches or beats its speedup while "
        "holding tails, because it prices transients *before* taking "
        "space.";
    return s;
}

/** Shared base for the three controller-knob ablations: Ubik at 5%
 *  slack over the low-load cache-hungry mixes (knob effects are
 *  load-insensitive; insensitive batch combos dilute the signal). */
ScenarioSpec
paramsBase(const char *name, const char *title)
{
    ScenarioSpec s;
    s.name = name;
    s.title = title;
    s.source = MixSource::CacheHungry;
    s.band = LoadBand::Low;
    s.notes =
        "Expected shape: tails hold near 1.0 across every setting "
        "(the transient bounds are what guarantee QoS, not the "
        "knobs); batch speedup degrades at the extremes — coarse N "
        "and huge guards strand space on idle LC apps, and very long "
        "intervals let miss curves go stale.";
    return s;
}

ScenarioSpec
paramsIdleSpec()
{
    ScenarioSpec s = paramsBase(
        "ablation-params-idle",
        "Ablation: Ubik controller parameters — idle-size search N");
    for (std::uint32_t n : {2u, 16u, 64u}) {
        SchemeUnderTest sut;
        sut.policy = PolicyKind::Ubik;
        sut.slack = 0.05;
        sut.label = "N=" + std::to_string(n);
        sut.ubik.idleOptions = n;
        s.schemes.push_back(sut);
    }
    s.reports = {
        {ReportKind::Averages, "params-idle-options", LoadBand::All}};
    return s;
}

ScenarioSpec
paramsGuardSpec()
{
    ScenarioSpec s = paramsBase(
        "ablation-params-guard",
        "Ablation: Ubik controller parameters — de-boost guard");
    for (double g : {0.0, 16.0, 256.0}) {
        SchemeUnderTest sut;
        sut.policy = PolicyKind::Ubik;
        sut.slack = 0.05;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "guard=%g", g);
        sut.label = buf;
        sut.ubik.deboostGuard = g;
        s.schemes.push_back(sut);
    }
    s.reports = {
        {ReportKind::Averages, "params-deboost-guard", LoadBand::All}};
    return s;
}

ScenarioSpec
paramsIntervalSpec()
{
    ScenarioSpec s = paramsBase(
        "ablation-params-interval",
        "Ablation: Ubik controller parameters — reconfig interval");
    for (double m : {0.25, 1.0, 4.0}) {
        SchemeUnderTest sut;
        sut.policy = PolicyKind::Ubik;
        sut.slack = 0.05;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "interval=%gx", m);
        sut.label = buf;
        sut.reconfigScale = m;
        s.schemes.push_back(sut);
    }
    s.reports = {{ReportKind::Averages, "params-reconfig-interval",
                  LoadBand::All}};
    return s;
}

ScenarioSpec
bandwidthSpec()
{
    ScenarioSpec s;
    s.name = "ablation-bandwidth";
    s.title = "Ablation: bandwidth contention & partitioning";

    // One scarce channel: the streaming batch side can saturate it,
    // but the three LC instances' own demand still fits. (The
    // paper's 3-channel Westmere is never the bottleneck at these
    // scales, which is why it could ignore bandwidth.)
    MemoryParams scarce;
    scarce.channels = 1;
    scarce.channelOccupancy = 24;

    SchemeUnderTest sut;
    sut.label = "Ubik/fixed";
    sut.policy = PolicyKind::Ubik;
    sut.slack = 0.05;
    s.schemes.push_back(sut);

    sut.label = "Ubik/contended";
    sut.mem = MemKind::Contended;
    sut.memParams = scarce;
    s.schemes.push_back(sut);

    sut.label = "Ubik/bw-part";
    sut.mem = MemKind::Partitioned;
    sut.lcMemShare = 0.5;
    s.schemes.push_back(sut);

    // Bandwidth-critical colocations only: memory-intensive LC apps
    // crossed with streaming-heavy batch mixes.
    s.source = MixSource::Explicit;
    for (const char *lc : {"moses", "shore", "specjbb"}) {
        for (double load : {0.2, 0.6}) {
            ScenarioMix sss;
            sss.lcPreset = lc;
            sss.load = load;
            sss.batch = {{{BatchClass::Streaming, 0},
                          {BatchClass::Streaming, 1},
                          {BatchClass::Streaming, 2}}};
            sss.batchName = "sss-0";
            s.mixes.push_back(sss);

            ScenarioMix ssf = sss;
            ssf.batch[2] = {BatchClass::Friendly, 0};
            ssf.batchName = "ssf-0";
            s.mixes.push_back(ssf);
        }
    }
    s.reports = {
        {ReportKind::PerApp, "bw", LoadBand::All},
        {ReportKind::Averages, "bw-avg", LoadBand::All},
    };
    s.notes =
        "Expected shape: contended memory degrades LC tails beyond "
        "Ubik's 5% slack (cache QoS cannot police the memory bus); "
        "strict-priority + batch regulation pulls tails back toward "
        "the fixed-latency reference, trading some batch throughput. "
        "This validates the paper's claim that Ubik composes with "
        "bandwidth QoS (§6).";
    return s;
}

/**
 * Shared base for the dynamic-load scenarios (§5.1 transients under
 * *offered-load* transients, not just phase changes): StaticLC — the
 * isolation reference that always holds the full target partition —
 * against Ubik at 5% slack, over cache-hungry colocations of the
 * three inertia-heavy LC apps. The per-scenario load profile is the
 * only variable.
 */
ScenarioSpec
dynamicBase(const char *name, const char *title, const char *tag)
{
    ScenarioSpec s;
    s.name = name;
    s.title = title;
    s.schemes = {
        {"StaticLC", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::StaticLc, 0.0},
        {"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::Ubik, 0.05},
    };
    s.source = MixSource::Explicit;
    for (const char *lc : {"masstree", "shore", "specjbb"}) {
        ScenarioMix m;
        m.lcPreset = lc;
        m.load = 0.2;
        m.batch = {{{BatchClass::Friendly, 0},
                    {BatchClass::Fitting, 1},
                    {BatchClass::Streaming, 0}}};
        m.batchName = "fts-0";
        s.mixes.push_back(m);
    }
    s.reports = {
        {ReportKind::Averages, tag, LoadBand::All},
        {ReportKind::Distributions, std::string(tag) + "-dist",
         LoadBand::All},
    };
    s.notes =
        "Expected shape: both schemes' tails degrade equally versus "
        "the constant-rate baseline (offered-load transients hit the "
        "queue regardless of cache policy); Ubik tracks StaticLC's "
        "tail within its 5% slack while keeping a batch speedup "
        "advantage, because boosts are priced *before* space is "
        "taken, not reclaimed after a violation.";
    return s;
}

ScenarioSpec
flashCrowdSpec()
{
    ScenarioSpec s = dynamicBase(
        "flash-crowd",
        "Dynamic load: flash crowd (3x arrival rate mid-run)",
        "flash");
    s.profile.kind = LoadProfileKind::FlashCrowd;
    s.profile.start = 0.4;
    s.profile.duration = 0.2;
    s.profile.multiplier = 3.0;
    return s;
}

ScenarioSpec
diurnalSpec()
{
    ScenarioSpec s = dynamicBase(
        "diurnal",
        "Dynamic load: diurnal sinusoid (+/-50% around nominal)",
        "diurnal");
    s.profile.kind = LoadProfileKind::Diurnal;
    s.profile.amplitude = 0.5;
    s.profile.periods = 1.0;
    return s;
}

ScenarioSpec
burstsSpec()
{
    ScenarioSpec s = dynamicBase(
        "bursts",
        "Dynamic load: correlated bursts (4 windows, 4x rate, all "
        "LC instances together)",
        "bursts");
    s.profile.kind = LoadProfileKind::Bursts;
    s.profile.bursts = 4;
    s.profile.duration = 0.05;
    s.profile.multiplier = 4.0;
    s.profile.burstSeed = 1;
    return s;
}

ScenarioSpec
churnSpec()
{
    ScenarioSpec s = dynamicBase(
        "churn",
        "Dynamic load: app departure/return (no arrivals for 30% of "
        "the run)",
        "churn");
    s.profile.kind = LoadProfileKind::Churn;
    s.profile.start = 0.35;
    s.profile.duration = 0.3;
    return s;
}

/**
 * The fleet scenarios: the §7.1 datacenter claim, composed from the
 * sweep results at thousands-of-servers scale. These replace the old
 * one-off example mains (datacenter_utilization, colocation_planner,
 * worker_sizing, bandwidth_planner) with registry specs that run
 * through the one sweep/cache/report path.
 */
ScenarioSpec
fleetUtilizationSpec()
{
    ScenarioSpec s;
    s.name = "fleet-utilization";
    s.title =
        "Fleet: datacenter utilization at scale (the ~6x claim)";
    s.schemes = {
        {"StaticLC", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::StaticLc, 0.0},
        {"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::Ubik, 0.05},
    };
    s.source = MixSource::Explicit;
    ScenarioMix m;
    m.lcPreset = "masstree";
    m.load = 0.2;
    m.batch = {{{BatchClass::Friendly, 1},
                {BatchClass::Friendly, 6},
                {BatchClass::Fitting, 3}}};
    m.batchName = "fft";
    s.mixes.push_back(m);
    s.fleet.servers = 1000;
    s.fleet.arrivals.users = 5.0;
    s.fleet.arrivals.nominalLoad = 0.2;
    s.fleet.arrivals.slices = 4;
    s.reports = {{ReportKind::Averages, "fleet-util", LoadBand::All}};
    s.notes =
        "Expected shape (§7.1): LC instances at ~20% load leave a "
        "dedicated fleet ~10% utilized; colocating 3 batch apps per "
        "server lifts utilization to ~60% (a ~6x lift) — and under "
        "Ubik the fleet-wide p95/p99 end-to-end tails hold within "
        "slack, so the saved machines are free. StaticLC saves the "
        "same machines here but at lower batch throughput; "
        "saved_vs_static is Ubik's margin over it.";
    return s;
}

ScenarioSpec
fleetColocationSpec()
{
    ScenarioSpec s;
    s.name = "fleet-colocation";
    s.title = "Fleet: advisor-planned colocation bundles";
    s.schemes = {
        {"StaticLC", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::StaticLc, 0.0},
        {"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::Ubik, 0.05},
    };
    s.source = MixSource::Explicit;
    struct Bundle
    {
        const char *name;
        std::array<BatchSel, 3> batch;
    };
    const Bundle bundles[] = {
        {"analytics",
         {{{BatchClass::Friendly, 1},
           {BatchClass::Friendly, 8},
           {BatchClass::Friendly, 15}}}},
        {"compress",
         {{{BatchClass::Streaming, 2},
           {BatchClass::Streaming, 9},
           {BatchClass::Streaming, 16}}}},
        {"build-farm",
         {{{BatchClass::Insensitive, 3},
           {BatchClass::Insensitive, 10},
           {BatchClass::Insensitive, 17}}}},
        {"mixed",
         {{{BatchClass::Friendly, 4},
           {BatchClass::Fitting, 11},
           {BatchClass::Streaming, 18}}}},
    };
    for (const Bundle &b : bundles) {
        ScenarioMix m;
        m.lcPreset = "shore";
        m.load = 0.2;
        m.batch = b.batch;
        m.batchName = b.name;
        s.mixes.push_back(m);
    }
    s.fleet.servers = 400;
    s.fleet.arrivals.users = 2.0;
    s.fleet.arrivals.nominalLoad = 0.2;
    s.fleet.arrivals.slices = 6;
    s.fleet.arrivals.imbalance = 0.25;
    s.reports = {{ReportKind::Averages, "fleet-coloc", LoadBand::All}};
    s.notes =
        "Expected shape: the advisor's plan decides placement — a "
        "downsizable LC rotates across all batch bundles, a "
        "non-downsizable one is pinned to the lowest-pressure bundle "
        "(build-farm); per-server load imbalance widens the tail "
        "spread but Ubik's SLO violations stay near zero.";
    return s;
}

ScenarioSpec
fleetSizingSpec()
{
    ScenarioSpec s;
    s.name = "fleet-sizing";
    s.title = "Fleet: G/G/k worker autosizing under diurnal load";
    s.schemes = {
        {"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::Ubik, 0.05},
    };
    s.source = MixSource::Explicit;
    for (double load : {0.2, 0.6}) {
        ScenarioMix m;
        m.lcPreset = "xapian";
        m.load = load;
        m.batch = {{{BatchClass::Friendly, 0},
                    {BatchClass::Fitting, 1},
                    {BatchClass::Streaming, 0}}};
        m.batchName = "fts-0";
        s.mixes.push_back(m);
    }
    s.fleet.servers = 250;
    s.fleet.arrivals.users = 1.0;
    s.fleet.arrivals.nominalLoad = 0.4;
    s.fleet.arrivals.slices = 8;
    s.fleet.arrivals.profile.kind = LoadProfileKind::Diurnal;
    s.fleet.arrivals.profile.amplitude = 0.5;
    s.fleet.arrivals.profile.periods = 1.0;
    s.fleet.queueWorkers = 0; // autosize
    s.fleet.maxWorkers = 8;
    s.fleet.interference = 0.15;
    s.fleet.abortProb = 0.02;
    s.fleet.tailTargetMs = 6.0;
    s.reports = {{ReportKind::Averages, "fleet-size", LoadBand::All}};
    s.notes =
        "Expected shape: off-peak slices run on few workers per LC "
        "instance; the diurnal peak pushes per-server load toward "
        "0.6 and the autosizer widens k until the "
        "interference-free tail meets the 6 ms target — mean_workers "
        "tracks the profile, and tails stay bounded through the "
        "peak.";
    return s;
}

ScenarioSpec
fleetBandwidthSpec()
{
    ScenarioSpec s;
    s.name = "fleet-bandwidth";
    s.title = "Fleet: bandwidth-scarce servers, streaming batch";
    MemoryParams scarce;
    scarce.channels = 1;
    scarce.channelOccupancy = 24;

    SchemeUnderTest sut;
    sut.label = "Ubik/fixed";
    sut.policy = PolicyKind::Ubik;
    sut.slack = 0.05;
    s.schemes.push_back(sut);

    sut.label = "Ubik/contended";
    sut.mem = MemKind::Contended;
    sut.memParams = scarce;
    s.schemes.push_back(sut);

    sut.label = "Ubik/bw-part";
    sut.mem = MemKind::Partitioned;
    sut.lcMemShare = 0.5;
    s.schemes.push_back(sut);

    s.source = MixSource::Explicit;
    ScenarioMix m;
    m.lcPreset = "moses";
    m.load = 0.6;
    m.batch = {{{BatchClass::Streaming, 0},
                {BatchClass::Streaming, 1},
                {BatchClass::Streaming, 2}}};
    m.batchName = "sss-0";
    s.mixes.push_back(m);
    s.fleet.servers = 300;
    s.fleet.arrivals.users = 1.0;
    s.fleet.arrivals.nominalLoad = 0.6;
    s.fleet.arrivals.slices = 4;
    s.reports = {{ReportKind::Averages, "fleet-bw", LoadBand::All}};
    s.notes =
        "Expected shape: on one scarce channel the streaming batch "
        "side saturates the bus and contended tails blow past slack "
        "fleet-wide; bandwidth partitioning pulls the p95/p99 tails "
        "back toward the fixed-latency reference at some batch "
        "throughput cost — cache QoS alone cannot police the memory "
        "bus (§6).";
    return s;
}

std::vector<ScenarioSpec>
buildBuiltins()
{
    return {
        fig9Spec(),       fig10Spec(),        fig11Spec(),
        fig12Spec(),      fig13Spec(),        flashCrowdSpec(),
        diurnalSpec(),    burstsSpec(),       churnSpec(),
        deboostSpec(),    feedbackSpec(),     paramsIdleSpec(),
        paramsGuardSpec(), paramsIntervalSpec(), bandwidthSpec(),
        fleetUtilizationSpec(), fleetColocationSpec(),
        fleetSizingSpec(), fleetBandwidthSpec(),
    };
}

} // namespace

const ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry(buildBuiltins());
    return registry;
}

} // namespace ubik
