#include "fleet/fleet_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <tuple>

#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/advisor.h"
#include "queueing/queue_sim.h"
#include "sim/result_cache.h"
#include "stats/latency_recorder.h"
#include "trace/trace_analyzer.h"
#include "workload/trace_capture.h"

namespace ubik {

namespace {

/** Load quantum the queue-sim memo buckets on: fine enough that the
 *  queueing regime inside one bucket is homogeneous, coarse enough
 *  that an imbalanced fleet needs tens of sims, not thousands. */
constexpr double kLoadBucket = 0.02;

/** Largest G/G/k worker count autosizing tries. */
constexpr std::uint32_t kMaxWorkers = 8;

/** Queue-sim resolution per (variant, load bucket, k). */
constexpr std::uint64_t kQueueRequests = 3000;
constexpr std::uint64_t kQueueWarmup = 300;
constexpr std::uint64_t kQueueSeed = 2024;

/** The tail the composition reads: the mean above the 95th
 *  percentile. */
constexpr double kTailPct = 95;

/** Extra end-to-end degradation tolerated beyond each scheme's slack
 *  before a (slice, server) counts as an SLO violation (queueing
 *  noise allowance). */
constexpr double kSloMargin = 0.05;

/** Batch-bundle rotation stream for downsizable placements. */
constexpr std::uint64_t kPlacementSeed = 1;

/** Seed-averaged MixRunResult metrics for one (scheme, mix). */
struct MixAvg
{
    double tailDegradation = 0;
    double meanDegradation = 0;
    double weightedSpeedup = 0;
};

/** Relative LLC pressure of a batch class (what a non-downsizable
 *  server wants colocated: the least cache-hungry bundle). */
int
classPressure(BatchClass c)
{
    switch (c) {
      case BatchClass::Insensitive: return 0;
      case BatchClass::Friendly: return 1;
      case BatchClass::Fitting: return 2;
      case BatchClass::Streaming: return 3;
    }
    return 3;
}

/**
 * The advisor's verdict on one LC preset, anchored at `load`: a
 * capture of the preset (kAdvisorTraceRequests requests, so the curve
 * shape has converged) gives the miss curve, and the LC baseline's
 * p95 the deadline.
 */
AdvisorVerdict
adviseLc(MixRunner &runner, const ExperimentConfig &cfg,
         const LcAppParams &app, double load)
{
    const LcBaseline base =
        runner.lcBaseline(app, load, kAdvisorBaselineSeed);
    TraceData trace = captureLcTrace(app.scaled(cfg.scale),
                                     kAdvisorTraceRequests,
                                     kAdvisorTraceSeed);
    TraceAnalysis an = analyzeTrace(trace);
    std::uint64_t target = cfg.privateLines();

    CoreProfile prof;
    prof.missPenalty = 200.0 / app.mlp;
    prof.hitCyclesPerAccess = 20;
    prof.missRate = an.missRatioAtSize(target);
    prof.accessesPerCycle = app.apki / 1000.0 * app.baseIpc;
    prof.valid = true;

    AdvisorInput in;
    in.curve = an.missCurve(kAdvisorCurvePoints, target * 4);
    in.intervalAccesses = an.accesses;
    in.profile = prof;
    in.targetLines = target;
    in.deadline = base.p95;
    in.boostCap = cfg.llcLines() / kMixLcInstances;
    AdvisorReport rep = advise(in);
    return {rep.canDownsize, rep.best.freedLines,
            rep.best.transientCycles};
}

/** One LC preset's slice of the scenario mixes. */
struct LcGroup
{
    std::string lcName;
    std::vector<std::size_t> mixIdx;       ///< into mixes, in order
    std::vector<std::string> bundles;      ///< unique batch names
    std::vector<std::vector<std::size_t>> bundleMixes; ///< per bundle

    bool canDownsize = false;
    std::uint64_t freedLines = 0;
    double transientUs = 0;
    std::size_t pressureBundle = 0;
    std::uint64_t rotation = 0; ///< round-robin offset (downsizable)
};

} // namespace

void
FleetSpec::validate(const char *what) const
{
    if (servers == 0)
        return;
    arrivals.validate(what);
    if (queueWorkers > kMaxWorkers)
        fatal("%s: queue_workers %u exceeds the %u-worker cap", what,
              queueWorkers, kMaxWorkers);
    if (interference < 0 || interference > 1.0)
        fatal("%s: interference %.3f outside [0, 1]", what,
              interference);
    if (abortProb < 0 || abortProb >= 1.0)
        fatal("%s: abort_prob %.3f outside [0, 1)", what, abortProb);
    if (tailTargetMs < 0)
        fatal("%s: tail_target_ms must be >= 0", what);
}

FleetResult
runFleet(const FleetSpec &fs,
         const std::vector<SchemeUnderTest> &schemes,
         const std::vector<MixSpec> &mixes,
         const std::vector<SweepResult> &sweeps,
         const ExperimentConfig &cfg, bool ooo, ResultCache *cache)
{
    fs.validate("fleet");
    if (fs.servers == 0)
        panic("runFleet on a spec without a fleet stage");
    if (schemes.empty() || mixes.empty())
        fatal("fleet: needs at least one scheme and one mix");
    if (sweeps.size() != schemes.size())
        panic("fleet: sweep/scheme count mismatch (%zu vs %zu)",
              sweeps.size(), schemes.size());
    const std::uint32_t seeds = cfg.seeds;
    for (const SweepResult &sw : sweeps)
        if (sw.runs.size() != mixes.size() * seeds)
            panic("fleet: sweep '%s' has %zu runs, expected %zu",
                  sw.label.c_str(), sw.runs.size(),
                  mixes.size() * seeds);

    // --- Seed-averaged cache-sim metrics per (scheme, mix). The
    // sweep layout is mix-major, seed-inner.
    std::vector<std::vector<MixAvg>> avg(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); s++) {
        avg[s].resize(mixes.size());
        for (std::size_t m = 0; m < mixes.size(); m++) {
            MixAvg &a = avg[s][m];
            for (std::uint32_t k = 0; k < seeds; k++) {
                const MixRunResult &r = sweeps[s].runs[m * seeds + k];
                a.tailDegradation += r.tailDegradation;
                a.meanDegradation += r.meanDegradation;
                a.weightedSpeedup += r.weightedSpeedup;
            }
            a.tailDegradation /= seeds;
            a.meanDegradation /= seeds;
            a.weightedSpeedup /= seeds;
        }
    }

    // --- Group mixes by LC preset, preserving first-seen order.
    std::vector<LcGroup> groups;
    for (std::size_t m = 0; m < mixes.size(); m++) {
        const std::string &lc = mixes[m].lc.app.name;
        LcGroup *g = nullptr;
        for (LcGroup &cand : groups)
            if (cand.lcName == lc) {
                g = &cand;
                break;
            }
        if (!g) {
            groups.push_back({});
            g = &groups.back();
            g->lcName = lc;
        }
        g->mixIdx.push_back(m);
        const std::string &bundle = mixes[m].batch.name;
        std::size_t b = 0;
        for (; b < g->bundles.size(); b++)
            if (g->bundles[b] == bundle)
                break;
        if (b == g->bundles.size()) {
            g->bundles.push_back(bundle);
            g->bundleMixes.push_back({});
        }
        g->bundleMixes[b].push_back(m);
    }

    MixRunner runner(cfg, ooo);
    runner.attachCache(cache);

    // --- Per-group advisor verdict (scheme-independent, so every
    // scheme is compared on identical placements), served by the
    // cache when it holds one, and the fallback minimum-pressure
    // bundle for non-downsizable groups.
    for (std::size_t gi = 0; gi < groups.size(); gi++) {
        LcGroup &g = groups[gi];

        // The variant closest to the cluster's nominal load anchors
        // the baseline and the advisor's deadline.
        std::size_t anchor = g.mixIdx.front();
        for (std::size_t m : g.mixIdx)
            if (std::fabs(mixes[m].lc.load - fs.arrivals.nominalLoad) <
                std::fabs(mixes[anchor].lc.load -
                          fs.arrivals.nominalLoad))
                anchor = m;
        const LcAppParams &app = mixes[anchor].lc.app;
        const double load = mixes[anchor].lc.load;
        const std::string key = advisorKey(cfg, app, load, ooo);
        std::optional<AdvisorVerdict> verdict = cache->loadAdvice(key);
        if (!verdict) {
            verdict = adviseLc(runner, cfg, app, load);
            cache->storeAdvice(key, *verdict);
        }

        g.canDownsize = verdict->canDownsize;
        g.freedLines = verdict->freedLines;
        g.transientUs =
            verdict->transientCycles / kClockHz * 1e6 * cfg.scale;
        g.rotation = Rng::jobStream(kPlacementSeed, gi)
                         .uniformInt(g.bundles.size());

        int best_pressure = 0;
        for (std::size_t b = 0; b < g.bundles.size(); b++) {
            const MixSpec &mx = mixes[g.bundleMixes[b].front()];
            int pressure = 0;
            for (const BatchAppParams &bp : mx.batch.apps)
                pressure += classPressure(bp.cls);
            if (b == 0 || pressure < best_pressure) {
                best_pressure = pressure;
                g.pressureBundle = b;
            }
        }
    }

    ClusterArrivals arr(fs.arrivals, fs.servers);

    // --- Per-mix baselines (the sweep warmed the cache, so these
    // are lookups, not simulations) and shape-preserving service
    // distributions for the queue composition.
    std::vector<double> aloneMean(mixes.size());
    for (std::size_t m = 0; m < mixes.size(); m++)
        aloneMean[m] =
            runner.lcBaseline(mixes[m].lc.app, mixes[m].lc.load, 1)
                .meanServiceCycles;

    auto serviceScaledTo = [&](std::size_t m, double mean_cycles) {
        ServiceDistribution d = mixes[m].lc.app.work;
        d.scale(mean_cycles / d.mean());
        return d;
    };

    // Queue tails memoized on (scheme(-1 = alone), mix, load bucket,
    // workers), each served by the cache when it holds one. The alone
    // run is scheme-independent and shares its seed with the inflated
    // runs so each comparison is paired on the identical arrival
    // sequence.
    std::map<std::tuple<long, std::size_t, long, std::uint32_t>,
             double>
        tailMemo;
    auto queueTail = [&](long scheme, std::size_t m, long bucket,
                         std::uint32_t k) {
        auto key = std::make_tuple(scheme, m, bucket, k);
        auto it = tailMemo.find(key);
        if (it != tailMemo.end())
            return it->second;
        double rho = static_cast<double>(bucket) * kLoadBucket;
        double mean =
            scheme < 0
                ? aloneMean[m]
                : aloneMean[m] *
                      avg[static_cast<std::size_t>(scheme)][m]
                          .meanDegradation;
        QueueSimParams qp;
        qp.workers = k;
        qp.service = serviceScaledTo(m, mean);
        // Open loop: the arrival rate is set by the *alone* offered
        // load; colocation inflates service, not arrivals.
        qp.meanInterarrival = aloneMean[m] / (rho * k);
        qp.requests = kQueueRequests;
        qp.warmup = kQueueWarmup;
        qp.interferenceFactor = fs.interference;
        qp.abortProb = k > 1 ? fs.abortProb : 0.0;
        std::uint64_t seed = kQueueSeed +
                             static_cast<std::uint64_t>(m) * 1000003 +
                             static_cast<std::uint64_t>(bucket) * 7919 +
                             k * 31;
        const std::string cacheKey = queueTailKey(qp, seed, kTailPct);
        std::optional<double> tail = cache->loadDouble(cacheKey);
        if (!tail) {
            tail = QueueSim(qp, seed).run().latencies.tailMean(kTailPct);
            cache->storeDouble(cacheKey, *tail);
        }
        tailMemo.emplace(key, *tail);
        return *tail;
    };

    // Autosize memo: smallest k <= kMaxWorkers whose alone tail meets
    // the target at this (mix, bucket); the worker_sizing
    // methodology, applied per load bucket.
    std::map<std::pair<std::size_t, long>, std::uint32_t> sizeMemo;
    auto workersFor = [&](std::size_t m, long bucket) {
        if (fs.queueWorkers > 0)
            return fs.queueWorkers;
        auto key = std::make_pair(m, bucket);
        auto it = sizeMemo.find(key);
        if (it != sizeMemo.end())
            return it->second;
        double target_cycles =
            fs.tailTargetMs > 0
                ? fs.tailTargetMs * 1e-3 * kClockHz / cfg.scale
                : 4.0 * aloneMean[m];
        std::uint32_t chosen = kMaxWorkers;
        for (std::uint32_t k = 1; k <= kMaxWorkers; k++)
            if (queueTail(-1, m, bucket, k) <= target_cycles) {
                chosen = k;
                break;
            }
        sizeMemo.emplace(key, chosen);
        return chosen;
    };

    // --- The fleet grid. Single-threaded and memoized: every value
    // below is a pure function of the spec and the sweep results.
    FleetResult fr;
    fr.servers = fs.servers;
    fr.slices = fs.arrivals.slices;
    fr.users = fs.arrivals.users;
    {
        std::size_t anchor = groups.front().mixIdx.front();
        double rate = arr.clusterRequestRate(
            aloneMean[anchor], cfg.scale,
            static_cast<std::uint64_t>(fs.servers) * kMixLcInstances);
        fr.impliedPerUserRps = rate / (fs.arrivals.users * 1e6);
    }

    auto groupOf = [&](std::uint32_t srv) -> const LcGroup & {
        return groups[srv % groups.size()];
    };
    auto bundleOf = [&](std::uint32_t srv) {
        const LcGroup &g = groupOf(srv);
        if (!g.canDownsize)
            return g.pressureBundle;
        std::uint64_t slot = srv / groups.size() + g.rotation;
        return static_cast<std::size_t>(slot % g.bundles.size());
    };
    auto variantOf = [&](std::uint32_t srv, double rho) {
        const LcGroup &g = groupOf(srv);
        const std::vector<std::size_t> &vars =
            g.bundleMixes[bundleOf(srv)];
        std::size_t best = vars.front();
        for (std::size_t m : vars)
            if (std::fabs(mixes[m].lc.load - rho) <
                std::fabs(mixes[best].lc.load - rho))
                best = m;
        return best;
    };

    for (std::uint32_t srv = 0; srv < fs.servers; srv++)
        if (groupOf(srv).canDownsize)
            fr.serversDownsizable++;

    const double cores = kMixLcInstances + kMixBatchApps;

    for (std::size_t s = 0; s < schemes.size(); s++) {
        FleetSchemeResult r;
        r.label = schemes[s].label;
        double slack_limit = 1.0 + schemes[s].slack + kSloMargin;

        std::vector<double> tails_ms;
        tails_ms.reserve(static_cast<std::size_t>(fs.servers) *
                         fr.slices);
        double sum_load = 0, sum_batch_cores = 0, sum_workers = 0;
        std::uint64_t violations = 0, samples = 0;

        for (std::uint32_t sl = 0; sl < fr.slices; sl++) {
            for (std::uint32_t srv = 0; srv < fs.servers; srv++) {
                double rho = arr.serverLoad(sl, srv);
                std::size_t m = variantOf(srv, rho);
                long bucket = std::lround(rho / kLoadBucket);
                if (bucket < 1)
                    bucket = 1;
                std::uint32_t k = workersFor(m, bucket);

                double alone =
                    queueTail(-1, m, bucket, k);
                double infl = queueTail(static_cast<long>(s), m,
                                        bucket, k);
                // End-to-end tail degradation: the queue composition
                // captures how the mean service inflation amplifies
                // through queueing; the cache-sim ratio adds the
                // tail-specific degradation beyond the mean.
                double queue_deg = alone > 0 ? infl / alone : 1.0;
                double cache_tail_vs_mean =
                    avg[s][m].meanDegradation > 0
                        ? avg[s][m].tailDegradation /
                              avg[s][m].meanDegradation
                        : 1.0;
                double deg = queue_deg * cache_tail_vs_mean;

                if (deg > slack_limit)
                    violations++;
                samples++;
                tails_ms.push_back(
                    infl / kClockHz * 1e3 * cfg.scale);
                sum_load += rho;
                sum_batch_cores +=
                    kMixBatchApps * avg[s][m].weightedSpeedup;
                sum_workers += k;
            }
        }

        double n = static_cast<double>(samples);
        r.meanLoad = sum_load / n;
        r.utilization =
            (kMixLcInstances * r.meanLoad + kMixBatchApps) / cores;
        r.dedicatedUtil = kMixLcInstances * r.meanLoad / cores;
        r.utilizationLift =
            r.dedicatedUtil > 0 ? r.utilization / r.dedicatedUtil : 0;
        // The two nearest-rank elements a full sort would put there.
        const std::size_t rank95 = nearestRank(95, tails_ms.size()) - 1;
        const std::size_t rank99 = nearestRank(99, tails_ms.size()) - 1;
        std::nth_element(tails_ms.begin(), tails_ms.begin() + rank99,
                         tails_ms.end());
        std::nth_element(tails_ms.begin(), tails_ms.begin() + rank95,
                         tails_ms.begin() + rank99);
        r.tailP95Ms = tails_ms[rank95];
        r.tailP99Ms = tails_ms[rank99];
        r.sloViolationFrac = static_cast<double>(violations) / n;
        r.batchCoreEquivalents = sum_batch_cores / fr.slices;
        r.machinesSavedVsDedicated = r.batchCoreEquivalents / cores;
        r.meanWorkers = sum_workers / n;
        fr.schemes.push_back(std::move(r));
    }

    // Machines saved vs the StaticLC partitioning scheme, when the
    // spec includes one (the paper's §7.1 comparison).
    long static_idx = -1;
    for (std::size_t s = 0; s < schemes.size(); s++)
        if (schemes[s].policy == PolicyKind::StaticLc) {
            static_idx = static_cast<long>(s);
            break;
        }
    if (static_idx >= 0) {
        double base =
            fr.schemes[static_cast<std::size_t>(static_idx)]
                .batchCoreEquivalents;
        for (std::size_t s = 0; s < fr.schemes.size(); s++)
            if (static_cast<long>(s) != static_idx)
                fr.schemes[s].machinesSavedVsStatic =
                    (fr.schemes[s].batchCoreEquivalents - base) /
                    cores;
    }

    for (const LcGroup &g : groups) {
        FleetPlanRow row;
        row.lc = g.lcName;
        row.placement =
            g.canDownsize ? "rotate" : g.bundles[g.pressureBundle];
        row.canDownsize = g.canDownsize;
        row.freedLines = g.freedLines;
        row.transientUs = g.transientUs;
        for (std::uint32_t srv = 0; srv < fs.servers; srv++)
            if (&groupOf(srv) == &g)
                row.servers++;
        fr.plan.push_back(std::move(row));
    }

    return fr;
}

void
printFleetReport(const FleetResult &fr)
{
    std::printf("  [fleet] servers=%u slices=%u users=%.2fM "
                "rps_per_user=%.4f downsizable=%u\n",
                fr.servers, fr.slices, fr.users,
                fr.impliedPerUserRps, fr.serversDownsizable);
    for (const FleetPlanRow &p : fr.plan)
        std::printf("  [fleet-plan] lc=%s placement=%s downsize=%s "
                    "freed_lines=%llu transient_us=%.1f servers=%u\n",
                    p.lc.c_str(), p.placement.c_str(),
                    p.canDownsize ? "yes" : "no",
                    static_cast<unsigned long long>(p.freedLines),
                    p.transientUs, p.servers);
    for (const FleetSchemeResult &r : fr.schemes)
        std::printf(
            "  [fleet-summary] scheme=%s load=%.3f util=%.3f "
            "dedicated=%.3f lift=%.2fx p95_ms=%.3f p99_ms=%.3f "
            "slo_viol=%.4f batch_cores=%.1f saved_vs_dedicated=%.1f "
            "saved_vs_static=%.1f workers=%.2f\n",
            r.label.c_str(), r.meanLoad, r.utilization,
            r.dedicatedUtil, r.utilizationLift, r.tailP95Ms,
            r.tailP99Ms, r.sloViolationFrac, r.batchCoreEquivalents,
            r.machinesSavedVsDedicated, r.machinesSavedVsStatic,
            r.meanWorkers);
}

void
writeFleet(JsonWriter &w, const FleetResult &fr)
{
    w.beginObject();
    w.member("servers", fr.servers);
    w.member("slices", fr.slices);
    w.member("users_millions", fr.users);
    w.member("implied_per_user_rps", fr.impliedPerUserRps);
    w.member("servers_downsizable", fr.serversDownsizable);

    w.key("plan").beginArray();
    for (const FleetPlanRow &p : fr.plan) {
        w.beginObject();
        w.member("lc", p.lc);
        w.member("placement", p.placement);
        w.member("downsize", p.canDownsize);
        w.member("freed_lines", p.freedLines);
        w.member("transient_us", p.transientUs);
        w.member("servers", p.servers);
        w.endObject();
    }
    w.endArray();

    w.key("schemes").beginArray();
    for (const FleetSchemeResult &r : fr.schemes) {
        w.beginObject();
        w.member("scheme", r.label);
        w.member("mean_load", r.meanLoad);
        w.member("utilization", r.utilization);
        w.member("dedicated_utilization", r.dedicatedUtil);
        w.member("utilization_lift", r.utilizationLift);
        w.member("tail_p95_ms", r.tailP95Ms);
        w.member("tail_p99_ms", r.tailP99Ms);
        w.member("slo_violation_frac", r.sloViolationFrac);
        w.member("batch_core_equivalents", r.batchCoreEquivalents);
        w.member("machines_saved_vs_dedicated",
                 r.machinesSavedVsDedicated);
        w.member("machines_saved_vs_static", r.machinesSavedVsStatic);
        w.member("mean_workers", r.meanWorkers);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

Json
fleetToJson(const FleetResult &fr)
{
    return writtenJson([&](JsonWriter &w) { writeFleet(w, fr); });
}

} // namespace ubik
