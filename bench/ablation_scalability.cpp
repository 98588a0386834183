/**
 * @file
 * CMP-scalability ablation (the paper's §6 future work).
 *
 * "Ubik should apply to large-scale CMPs with tens to hundreds of
 * cores, but we leave that evaluation to future work." This bench
 * scales the evaluated machine from the paper's 6 cores up to 12 and
 * 24 (half LC instances, half batch apps; LLC capacity and memory
 * channels grow proportionally) and checks that Ubik's guarantees
 * and efficiency survive:
 *
 *  - LC tail degradation stays bounded as the partition count grows
 *    (more partitions stress Vantage and the repartitioning table);
 *  - batch weighted speedup holds (Lookahead still allocates well);
 *  - the software runtime cost per reconfiguration grows gracefully
 *    (it is O(apps x buckets), reported as wall-clock per reconfig);
 *  - the idle->active fast path (§5.1.3: an LC resize plus a
 *    repartitioning-table walk, "hundreds of cycles") stays far
 *    cheaper than a reconfiguration, timed per idle/active edge pair.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "sim/experiment.h"
#include "sim/job_pool.h"
#include "stats/streaming_stats.h"
#include "workload/batch_app.h"
#include "workload/lc_app.h"

using namespace ubik;

namespace {

struct Calibration
{
    double meanInterarrival;
    double baselineTail;
    Cycles deadline;
};

/** Calibrate one LC app alone on the private-LLC baseline. */
Calibration
calibrate(const ExperimentConfig &cfg, const LcAppParams &params,
          double load, std::uint64_t seed)
{
    LcAppParams scaled = params.scaled(cfg.scale);
    Calibration cal{};

    CmpConfig cc = cfg.baseCmpConfig(true);
    cc.privateLlc = true;
    LcAppSpec spec;
    spec.params = scaled;
    spec.meanInterarrival = 0;
    spec.roiRequests = cfg.roiRequests;
    spec.warmupRequests = cfg.warmupRequests;
    spec.targetLines = cfg.privateLines();
    {
        Cmp cmp(cc, {spec}, {}, seed);
        cmp.run();
        cal.meanInterarrival =
            cmp.lcResult(0).serviceTimes.mean() / load;
    }
    spec.meanInterarrival = cal.meanInterarrival;
    {
        Cmp cmp(cc, {spec}, {}, seed + 1);
        cmp.run();
        cal.baselineTail = cmp.lcResult(0).latencies.tailMean(95.0);
        cal.deadline = static_cast<Cycles>(
            cmp.lcResult(0).latencies.percentile(95.0));
    }
    return cal;
}

} // namespace

int
main()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.printHeader("Ablation: CMP scalability (6 -> 24 cores)");

    // One LC app per "rack role": cycle the five presets across the
    // LC cores; batch cores cycle the four classes.
    auto lc_presets_all = lc_presets::all();
    const double load = 0.6; // high load stresses QoS hardest

    // Calibrations are per-app, shared across machine sizes, and
    // independent of each other: run all nine through the experiment
    // engine's pool (UBIK_JOBS workers). Each job writes only its own
    // slot and derives randomness from its own fixed seed, so results
    // match the sequential order for any worker count.
    std::vector<Calibration> cals(lc_presets_all.size());
    std::vector<double> batchAloneIpc(4);
    {
        JobPool pool(cfg.jobs);
        pool.run(cals.size() + batchAloneIpc.size(),
                 [&](std::size_t i) {
                     if (i < cals.size()) {
                         cals[i] = calibrate(cfg, lc_presets_all[i],
                                             load, 1000);
                         return;
                     }
                     std::uint32_t b =
                         static_cast<std::uint32_t>(i - cals.size());
                     CmpConfig cc = cfg.baseCmpConfig(true);
                     cc.privateLlc = true;
                     BatchAppSpec spec;
                     spec.params =
                         batch_presets::make(
                             static_cast<BatchClass>(b), b)
                             .scaled(cfg.scale);
                     Cmp cmp(cc, {}, {spec}, 2000 + b);
                     cmp.run();
                     batchAloneIpc[b] = cmp.batchResult(0).ipc();
                 });
    }

    std::printf("\n[scale] Ubik (5%% slack) at %.0f%% load, half LC / "
                "half batch cores\n",
                load * 100);
    std::printf("%6s %10s %14s %14s %16s %12s %15s\n", "cores",
                "LLC(MB)", "avg tail deg", "worst tail deg",
                "batch wspeedup", "us/reconfig", "us/idle-active");

    for (std::uint32_t cores : {6u, 12u, 24u}) {
        CmpConfig cc = cfg.baseCmpConfig(true);
        cc.policy = PolicyKind::Ubik;
        cc.ubik.slack = 0.05;
        cc.llcLines = cfg.llcLines() * cores / 6;

        std::uint32_t n_lc = cores / 2;
        std::vector<LcAppSpec> lcs(n_lc);
        for (std::uint32_t i = 0; i < n_lc; i++) {
            std::size_t app = i % lc_presets_all.size();
            lcs[i].params = lc_presets_all[app].scaled(cfg.scale);
            lcs[i].meanInterarrival = cals[app].meanInterarrival;
            lcs[i].roiRequests = cfg.roiRequests;
            lcs[i].warmupRequests = cfg.warmupRequests;
            lcs[i].targetLines = cfg.privateLines();
            lcs[i].deadline = cals[app].deadline;
        }
        std::vector<BatchAppSpec> batch(cores - n_lc);
        for (std::uint32_t i = 0; i < batch.size(); i++)
            batch[i].params =
                batch_presets::make(static_cast<BatchClass>(i % 4), i)
                    .scaled(cfg.scale);

        auto t0 = std::chrono::steady_clock::now();
        Cmp cmp(cc, lcs, batch, 4242);
        cmp.run();
        auto dt = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

        StreamingStats tail;
        for (std::uint32_t i = 0; i < n_lc; i++) {
            std::size_t app = i % lc_presets_all.size();
            tail.add(cmp.lcResult(i).latencies.tailMean(95.0) /
                     cals[app].baselineTail);
        }
        StreamingStats ws;
        for (std::uint32_t i = 0; i < batch.size(); i++)
            ws.add(cmp.batchResult(i).ipc() / batchAloneIpc[i % 4]);

        // Software runtime costs on the finished machine (host
        // wall-clock): one full reconfiguration, and one idle->active
        // edge pair of LC app 0 (the fast path).
        std::uint64_t reconfigs =
            cmp.now() / cfg.reconfigInterval();
        PartitionPolicy &policy = *cmp.policy();
        auto usPer = [](int reps, auto &&op) {
            auto r0 = std::chrono::steady_clock::now();
            for (int r = 0; r < reps; r++)
                op();
            return std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - r0)
                       .count() /
                   reps;
        };
        double us_per_reconfig =
            usPer(50, [&] { policy.reconfigure(cmp.now()); });
        Cycles t = cmp.now();
        double us_per_edge_pair = usPer(1000, [&] {
            policy.onIdle(0, t += 1000);
            policy.onActive(0, t += 1000);
        });

        std::printf("%6u %10.2f %13.3fx %13.3fx %15.1f%% %12.1f %15.3f"
                    "   (%llu reconfigs, %.1fs sim)\n",
                    cores,
                    static_cast<double>(cc.llcLines * kLineBytes) /
                        (1 << 20),
                    tail.mean(), tail.max(), (ws.mean() - 1) * 100,
                    us_per_reconfig, us_per_edge_pair,
                    static_cast<unsigned long long>(reconfigs), dt);
    }

    std::printf("\nExpected shape: tail degradation stays bounded "
                "(near 1x average) and batch speedups hold as the "
                "machine grows; the reconfiguration cost grows "
                "roughly linearly in app count (the paper reports "
                "tens of thousands of cycles at 6 cores, i.e. ~10us "
                "— small against a 50ms interval even at 24 "
                "cores). An idle/active edge pair stays about two "
                "orders of magnitude cheaper than a reconfiguration "
                "at every size.\n");
    return 0;
}
