/**
 * @file
 * ubik_cli: run one latency-critical/batch mix under one management
 * scheme and print the paper's metrics — the front door for anyone
 * exploring the library without writing C++.
 *
 *   # Ubik with 5% slack on a masstree mix at high load
 *   ubik_cli --lc masstree --load 0.6 --policy Ubik --slack 0.05
 *
 *   # The UCP baseline on the same mix, dumping plot data
 *   ubik_cli --lc masstree --load 0.6 --policy UCP \
 *            --csv-prefix /tmp/ucp_run
 *
 * The flags describe a one-mix explicit scenario, which runs through
 * runScenario like every `ubik_run` sweep. Machine scale follows the
 * UBIK_* environment variables (see src/sim/experiment.h); flags
 * cover the per-run knobs.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/log.h"
#include "report/report.h"
#include "sim/job_pool.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "stats/streaming_stats.h"
#include "trace/csv.h"
#include "workload/trace_app.h"

using namespace ubik;

int
main(int argc, char **argv)
{
    Cli cli("ubik_cli",
            "run one LC/batch mix under one cache-management scheme");
    auto &lc = cli.flag("lc", "masstree",
                        "LC workload: xapian, masstree, moses, shore, "
                        "specjbb");
    auto &lc_trace =
        cli.flag("lc-trace", "",
                 "replay this .ubtr trace as the LC workload (all "
                 "three instances, disjoint address spaces); --lc "
                 "still supplies the timing model and baselines");
    auto &batch_trace =
        cli.flag("batch-trace", "",
                 "replay this .ubtr trace as all three batch apps "
                 "(looping, disjoint address spaces); --batch still "
                 "supplies the timing model and alone-IPC baselines");
    auto &load = cli.flag("load", 0.2, "offered load (0, 1)");
    auto &policy_name =
        cli.flag("policy", "Ubik", enumNameList<PolicyKind>());
    auto &scheme_name = cli.flag("scheme", "auto",
                                 "auto, " + enumNameList<SchemeKind>());
    auto &array_name =
        cli.flag("array", "zcache", enumNameList<ArrayKind>());
    auto &slack = cli.flag("slack", 0.05, "Ubik tail-latency slack");
    auto &batch = cli.flag("batch", "fts",
                           "three batch classes, e.g. fts, nnn, sss "
                           "(n/f/t/s)");
    auto &mem = cli.flag("mem", "fixed",
                         "memory model: " + enumNameList<MemKind>());
    auto &seeds = cli.flag("seeds", static_cast<std::int64_t>(1),
                           "run seeds 1..N through the parallel "
                           "engine and report the spread");
    auto &jobs = cli.flag("jobs", static_cast<std::int64_t>(0),
                          "engine workers (0 = UBIK_JOBS or all "
                          "cores, 1 = sequential)");
    auto &inorder = cli.flag("inorder", false,
                             "use in-order cores instead of OOO");
    auto &csv_prefix =
        cli.flag("csv-prefix", "",
                 "write <prefix>_alloc.csv and <prefix>_cdf.csv");
    auto &cache_dir =
        cli.flag("cache-dir", "",
                 "persistent result cache directory (overrides "
                 "UBIK_CACHE_DIR)");
    auto &no_cache = cli.flag("no-cache", false,
                              "ignore UBIK_CACHE_DIR / --cache-dir");
    auto &cache_stats =
        cli.flag("cache-stats", false,
                 "print the cache hit/miss/evict summary");
    cli.parse(argc, argv);

    if (load.value <= 0 || load.value >= 1)
        fatal("--load must be in (0, 1)");
    if (batch.value.size() != 3)
        fatal("--batch needs exactly three class codes (n/f/t/s)");

    const std::uint64_t n_seeds = flagInRange(seeds, 1, UINT32_MAX);
    const std::uint64_t n_jobs = flagInRange(jobs, 0, kMaxJobs);

    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    if (n_jobs > 0)
        cfg.jobs = static_cast<std::uint32_t>(n_jobs);
    if (!cache_dir.value.empty())
        cfg.cacheDir = cache_dir.value;
    if (no_cache.value)
        cfg.cacheDir.clear();
    cfg.printHeader("ubik_cli");

    SchemeUnderTest sut;
    sut.policy =
        enumFromName<PolicyKind>(policy_name.value, "--policy");
    sut.scheme =
        schemeKindFromNameOrAuto(scheme_name.value, sut.policy);
    sut.array = enumFromName<ArrayKind>(array_name.value, "--array");
    sut.slack = slack.value;
    sut.mem = enumFromName<MemKind>(mem.value, "--mem");
    sut.label = policy_name.value;

    ScenarioMix mix;
    mix.name = lc.value + "/" + batch.value;
    if (!lc_trace.value.empty() || !batch_trace.value.empty())
        mix.name += "/trace";
    mix.lcPreset = lc.value;
    mix.load = load.value;
    for (std::size_t i = 0; i < 3; i++)
        mix.batch[i] =
            BatchSel{enumFromName<BatchClass>(batch.value.substr(i, 1),
                                              "--batch"),
                     static_cast<std::uint32_t>(i)};
    if (!lc_trace.value.empty())
        mix.lcTraces.push_back(lc_trace.value);
    if (!batch_trace.value.empty())
        mix.batchTraces.push_back(batch_trace.value);

    ScenarioSpec spec;
    spec.name = mix.name;
    spec.source = MixSource::Explicit;
    spec.mixes.push_back(mix);
    spec.schemes.push_back(sut);
    spec.seeds = static_cast<std::uint32_t>(n_seeds);
    spec.ooo = !inorder.value;

    std::unique_ptr<ResultCache> cache = ResultCache::open(cfg.cacheDir);
    ScenarioResult res = runScenario(spec, cfg, cache.get(), nullptr);
    const MixSpec &ran = res.mixes.front();
    const std::vector<MixRunResult> &all = res.sweeps.front().runs;
    const MixRunResult &first = all.front();

    if (!ran.lc.traces.empty()) {
        const TraceApp &app = *ran.lc.traces.front();
        std::printf("replaying trace %s (%llu requests, %llu accesses, "
                    "APKI %.1f, content hash %016llx)\n",
                    lc_trace.value.c_str(),
                    static_cast<unsigned long long>(app.requests()),
                    static_cast<unsigned long long>(app.accesses()),
                    app.apki(),
                    static_cast<unsigned long long>(app.contentHash()));
    }
    if (!ran.batch.traces.empty()) {
        const TraceApp &app = *ran.batch.traces.front();
        std::printf("replaying batch trace %s (%llu accesses, "
                    "content hash %016llx)\n",
                    batch_trace.value.c_str(),
                    static_cast<unsigned long long>(app.accesses()),
                    static_cast<unsigned long long>(app.contentHash()));
    }
    std::printf("running mix %s under %s (load %.2f, seed%s 1",
                ran.name.c_str(), sut.label.c_str(), load.value,
                all.size() > 1 ? "s" : "");
    if (all.size() > 1)
        std::printf("..%zu", all.size());
    std::printf(")...\n");

    if (all.size() > 1) {
        StreamingStats tail, ws;
        for (const auto &r : all) {
            tail.add(r.tailDegradation);
            ws.add(r.weightedSpeedup);
        }
        std::printf("\nSeed sweep (%zu seeds, %u workers):\n",
                    all.size(), res.accounting.workers);
        std::printf("  tail degradation:        %.3fx avg, "
                    "[%.3fx, %.3fx]\n",
                    tail.mean(), tail.min(), tail.max());
        std::printf("  batch weighted speedup:  %.3fx avg, "
                    "[%.3fx, %.3fx]\n",
                    ws.mean(), ws.min(), ws.max());
        std::printf("\nFirst seed (1) in detail:\n");
    }

    std::printf("\nResults (vs private-LLC baseline):\n");
    std::printf("  LC tail mean (95p):      %.3f ms\n",
                cyclesToMs(static_cast<Cycles>(first.lcTailMean)));
    std::printf("  tail degradation:        %.3fx\n",
                first.tailDegradation);
    std::printf("  mean degradation:        %.3fx\n",
                first.meanDegradation);
    std::printf("  batch weighted speedup:  %.3fx\n",
                first.weightedSpeedup);
    for (std::size_t i = 0; i < first.batchSpeedups.size(); i++)
        std::printf("    batch[%zu] (%c): %.3fx\n", i,
                    batch.value[i], first.batchSpeedups[i]);

    if (!csv_prefix.value.empty()) {
        // Re-simulate seed 1 with tracing on to capture plot data;
        // the traced run is the reported one, bit for bit.
        MixRunner runner(cfg, spec.ooo);
        runner.attachCache(cache.get());
        MixTrace trace;
        runner.runMix(ran, sut, 1, &trace);
        writeAllocTrace(trace.alloc, csv_prefix.value + "_alloc.csv");
        writeLatencyCdf(trace.latencies,
                        csv_prefix.value + "_cdf.csv");
        std::printf("\nwrote %s_alloc.csv and %s_cdf.csv\n",
                    csv_prefix.value.c_str(), csv_prefix.value.c_str());
    }

    if (cache_stats.value) {
        if (!cache->persistent()) {
            std::printf("\nResult cache: in memory for this run (set "
                        "UBIK_CACHE_DIR or --cache-dir to keep results)\n");
        } else {
            std::printf("\n");
            printCacheStats(*cache, stdout);
        }
    }
    return 0;
}
