/**
 * @file
 * Reproduces Fig 1 (and prints Table 1): load-latency curves (mean
 * and 95th-pct tail-mean) and service-time CDFs for the five LC
 * workloads, each running alone on a private 2MB-equivalent LLC.
 */

#include <cstdio>

#include "sim/mix_runner.h"
#include "workload/lc_app.h"

using namespace ubik;

int
main()
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.printHeader("Fig 1 / Table 1: load-latency and service-time "
                    "CDFs of the LC workloads");

    // Table 1: workload configurations.
    std::printf("\n[table1] workload, APKI, mean work (kinstr), "
                "hot set (KB), paper ROI requests\n");
    for (const auto &p : lc_presets::all())
        std::printf("[table1] %-9s %5.1f %10.0f %10.0f %8llu\n",
                    p.name.c_str(), p.apki, p.work.mean() / 1e3,
                    static_cast<double>(p.hotLines * kLineBytes) /
                        1024.0,
                    static_cast<unsigned long long>(p.requests));

    MixRunner runner(cfg);
    const double loads[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};

    for (const auto &app : lc_presets::all()) {
        std::printf("\n[fig1a] %s: load, mean latency (ms), 95p tail "
                    "mean (ms)\n",
                    app.name.c_str());
        LatencyRecorder service;
        for (double load : loads) {
            LatencyRecorder lat =
                runner.runAlone(app, load, /*seed=*/1,
                                load == 0.2 ? &service : nullptr);
            std::printf("[fig1a] %-9s %4.1f %10.4f %10.4f\n",
                        app.name.c_str(), load,
                        cyclesToMs(static_cast<Cycles>(lat.mean())) *
                            cfg.scale,
                        cyclesToMs(static_cast<Cycles>(
                            lat.tailMean(95.0))) *
                            cfg.scale);
        }
        // Fig 1b: service-time CDF at 20% load (scaled back to
        // full-machine milliseconds for comparability).
        std::printf("[fig1b] %s service-time percentiles (ms): ",
                    app.name.c_str());
        for (double pct : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0})
            std::printf("p%.0f=%.4f ", pct,
                        cyclesToMs(static_cast<Cycles>(
                            service.percentile(pct))) *
                            cfg.scale);
        std::printf("\n");
    }

    std::printf("\nExpected shape (paper Fig 1): tail >> mean, both "
                "rising steeply beyond ~60-70%% load; masstree/moses "
                "near-constant service CDFs, xapian/shore/specjbb "
                "multimodal or long-tailed.\n");
    return 0;
}
