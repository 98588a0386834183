#include "report/report.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "common/json.h"
#include "common/log.h"
#include "sim/result_cache.h"
#include "stats/streaming_stats.h"
#include "trace/csv.h"
#include "workload/mix.h"

namespace ubik {

std::vector<SweepResult>
filterByLoad(const std::vector<SweepResult> &sweeps, LoadBand band)
{
    if (band == LoadBand::All)
        return sweeps;
    std::vector<SweepResult> out;
    for (const auto &s : sweeps) {
        ubik_assert(s.mixLoads.size() == s.runs.size());
        SweepResult p;
        p.label = s.label;
        for (std::size_t i = 0; i < s.runs.size(); i++) {
            bool low = isLowLoad(s.mixLoads[i]);
            if (low != (band == LoadBand::Low))
                continue;
            p.runs.push_back(s.runs[i]);
            p.mixNames.push_back(s.mixNames[i]);
            p.mixLoads.push_back(s.mixLoads[i]);
            if (i < s.seeds.size())
                p.seeds.push_back(s.seeds[i]);
        }
        out.push_back(std::move(p));
    }
    return out;
}

namespace {

/** One sorted-metric quantile row per scheme. An empty sweep prints
 *  zeros (a filtered-out band, or a sweep over zero mixes) instead
 *  of indexing v[-1]. */
void
printQuantileRows(const std::vector<SweepResult> &sweeps,
                  double MixRunResult::*metric, bool descending)
{
    std::printf("%-14s", "scheme");
    for (int q = 0; q <= 10; q++)
        std::printf(" %6d%%", q * 10);
    std::printf("\n");
    for (const auto &s : sweeps) {
        std::vector<double> v;
        for (const auto &r : s.runs)
            v.push_back(r.*metric);
        if (descending)
            std::sort(v.begin(), v.end(), std::greater<double>());
        else
            std::sort(v.begin(), v.end());
        std::printf("%-14s", s.label.c_str());
        for (int q = 0; q <= 10; q++) {
            double val = 0.0;
            if (!v.empty()) {
                std::size_t i = std::min(
                    v.size() - 1,
                    static_cast<std::size_t>(q) * (v.size() - 1) / 10);
                val = v[i];
            }
            std::printf(" %6.2f", val);
        }
        std::printf("\n");
    }
}

} // namespace

void
printDistributions(const std::vector<SweepResult> &sweeps,
                   const char *tag)
{
    std::printf("\n[%s] tail-latency degradation distribution "
                "(sorted worst->best)\n",
                tag);
    printQuantileRows(sweeps, &MixRunResult::tailDegradation,
                      /*descending=*/true);
    std::printf("\n[%s] weighted speedup distribution "
                "(sorted worst->best)\n",
                tag);
    printQuantileRows(sweeps, &MixRunResult::weightedSpeedup,
                      /*descending=*/false);
}

void
exportCsv(const std::vector<SweepResult> &sweeps, const char *tag,
          const std::string &dir)
{
    CsvWriter csv(dir + "/" + tag + "_runs.csv");
    csv.row(std::vector<std::string>{"scheme", "mix",
                                     "tail_degradation",
                                     "mean_degradation",
                                     "weighted_speedup"});
    for (const auto &s : sweeps) {
        for (std::size_t i = 0; i < s.runs.size(); i++) {
            const MixRunResult &r = s.runs[i];
            char td[32], md[32], ws[32];
            std::snprintf(td, sizeof(td), "%.6f", r.tailDegradation);
            std::snprintf(md, sizeof(md), "%.6f", r.meanDegradation);
            std::snprintf(ws, sizeof(ws), "%.6f", r.weightedSpeedup);
            csv.row(std::vector<std::string>{s.label, s.mixNames[i],
                                             td, md, ws});
        }
    }
    std::fprintf(stderr, "  [%s] wrote %s/%s_runs.csv\n", tag,
                 dir.c_str(), tag);
}

void
maybeExportCsv(const std::vector<SweepResult> &sweeps, const char *tag)
{
    const char *dir = std::getenv("UBIK_CSV_DIR");
    if (!dir || !*dir)
        return;
    exportCsv(sweeps, tag, dir);
}

void
printAverages(const std::vector<SweepResult> &sweeps, const char *tag)
{
    maybeExportCsv(sweeps, tag);
    std::printf("\n[%s] averages\n", tag);
    std::printf("%-14s %22s %22s %18s\n", "scheme",
                "avg tail degradation", "worst tail degradation",
                "avg wspeedup");
    for (const auto &s : sweeps) {
        StreamingStats tail, ws;
        for (const auto &r : s.runs) {
            tail.add(r.tailDegradation);
            ws.add(r.weightedSpeedup);
        }
        std::printf("%-14s %21.3fx %21.3fx %16.1f%%\n",
                    s.label.c_str(), tail.mean(), tail.max(),
                    (ws.mean() - 1.0) * 100.0);
    }
}

void
printPerApp(const std::vector<SweepResult> &sweeps, const char *tag)
{
    std::printf("\n[%s] per-app breakdown "
                "(tail degradation: overall/worst | wspeedup avg)\n",
                tag);
    std::printf("%-18s", "app/load");
    for (const auto &s : sweeps)
        std::printf(" %20s", s.label.c_str());
    std::printf("\n");
    // Group rows by the "<app>-<lo|hi>/" prefix of the mix name.
    std::vector<std::string> keys;
    for (const auto &s : sweeps)
        for (const auto &name : s.mixNames) {
            std::string key = name.substr(0, name.find('/'));
            if (std::find(keys.begin(), keys.end(), key) ==
                keys.end())
                keys.push_back(key);
        }
    for (const auto &key : keys) {
        std::printf("%-18s", key.c_str());
        for (const auto &s : sweeps) {
            StreamingStats tail, ws;
            for (std::size_t i = 0; i < s.runs.size(); i++) {
                if (s.mixNames[i].rfind(key + "/", 0) != 0)
                    continue;
                tail.add(s.runs[i].tailDegradation);
                ws.add(s.runs[i].weightedSpeedup);
            }
            std::printf("   %5.2f/%5.2f | %5.2f", tail.mean(),
                        tail.max(), ws.mean());
        }
        std::printf("\n");
    }
}

void
printUbikInterrupts(const std::vector<SweepResult> &sweeps,
                    const char *tag)
{
    std::printf("\n[%s] de-boost interrupt mix per scheme "
                "(totals over all runs)\n",
                tag);
    std::printf("%-22s %14s %14s %12s\n", "scheme", "early-recovery",
                "deadline-wait", "watermark");
    for (const auto &s : sweeps) {
        std::uint64_t early = 0, deadline = 0, wm = 0;
        for (const auto &r : s.runs) {
            early += r.ubikDeboosts;
            deadline += r.ubikDeadlineDeboosts;
            wm += r.ubikWatermarks;
        }
        std::printf("%-22s %14llu %14llu %12llu\n", s.label.c_str(),
                    static_cast<unsigned long long>(early),
                    static_cast<unsigned long long>(deadline),
                    static_cast<unsigned long long>(wm));
    }
}

Json
resultsToJson(const std::vector<SweepResult> &sweeps,
              const std::string &scenario)
{
    Json root = Json::object();
    root.set("format", "ubik-results");
    root.set("version", 1);
    if (!scenario.empty())
        root.set("scenario", scenario);
    Json jsweeps = Json::array();
    for (const auto &s : sweeps) {
        Json js = Json::object();
        js.set("scheme", s.label);
        Json jruns = Json::array();
        for (std::size_t i = 0; i < s.runs.size(); i++) {
            const MixRunResult &r = s.runs[i];
            Json jr = Json::object();
            jr.set("mix", s.mixNames[i]);
            if (i < s.mixLoads.size())
                jr.set("load", s.mixLoads[i]);
            if (i < s.seeds.size())
                jr.set("seed", s.seeds[i]);
            jr.set("lc_tail_mean", r.lcTailMean);
            jr.set("tail_degradation", r.tailDegradation);
            jr.set("mean_degradation", r.meanDegradation);
            jr.set("weighted_speedup", r.weightedSpeedup);
            Json bs = Json::array();
            for (double v : r.batchSpeedups)
                bs.push(v);
            jr.set("batch_speedups", std::move(bs));
            jr.set("ubik_deboosts", r.ubikDeboosts);
            jr.set("ubik_deadline_deboosts", r.ubikDeadlineDeboosts);
            jr.set("ubik_watermarks", r.ubikWatermarks);
            jruns.push(std::move(jr));
        }
        js.set("runs", std::move(jruns));
        jsweeps.push(std::move(js));
    }
    root.set("sweeps", std::move(jsweeps));
    return root;
}

void
writeJsonFile(const Json &doc, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot write results to %s", path.c_str());
    out << doc.dump(/*pretty=*/true) << "\n";
    if (!out.flush())
        fatal("short write to %s", path.c_str());
}

void
writeResultsJson(const std::vector<SweepResult> &sweeps,
                 const std::string &scenario, const std::string &path)
{
    writeJsonFile(resultsToJson(sweeps, scenario), path);
}

void
printCacheStats(const ResultCache &cache, std::FILE *out)
{
    CacheStats st = cache.stats();
    std::fprintf(out,
                 "  [cache] %s: %llu hits (%llu mix), %llu misses "
                 "(%llu mix), %llu stores, %llu stale evicted, "
                 "%llu corrupt dropped, %llu claims live, "
                 "%llu claims reclaimed\n",
                 cache.dir().c_str(),
                 static_cast<unsigned long long>(st.hits),
                 static_cast<unsigned long long>(st.mixHits),
                 static_cast<unsigned long long>(st.misses),
                 static_cast<unsigned long long>(st.mixMisses),
                 static_cast<unsigned long long>(st.stores),
                 static_cast<unsigned long long>(st.evicted),
                 static_cast<unsigned long long>(st.corrupt),
                 static_cast<unsigned long long>(st.claimsLive),
                 static_cast<unsigned long long>(st.claimsGced));
    // Degradation accounting on its own line, printed only when
    // anything actually retried or degraded: the common clean run
    // keeps its familiar single [cache] line.
    if (st.degraded() == 0 && st.appendRetries == 0)
        return;
    std::fprintf(out,
                 "  [cache-degraded] %s: %llu append retries, "
                 "%llu stores dropped, %llu fsync degraded, "
                 "%llu refresh degraded, %llu heartbeat releases, "
                 "%llu solo fallbacks\n",
                 cache.dir().c_str(),
                 static_cast<unsigned long long>(st.appendRetries),
                 static_cast<unsigned long long>(st.storesDropped),
                 static_cast<unsigned long long>(st.fsyncDegraded),
                 static_cast<unsigned long long>(st.refreshDegraded),
                 static_cast<unsigned long long>(st.hbReleases),
                 static_cast<unsigned long long>(st.soloFallbacks));
}

} // namespace ubik
