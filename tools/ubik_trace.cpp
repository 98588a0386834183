/**
 * @file
 * ubik_trace: record, convert, inspect, and advise on LLC access
 * traces — the command-line face of the trace subsystem
 * (trace/access_trace.h, trace/trace_reader.h).
 *
 *   # capture 1000 requests of the shore preset to a (v2) trace file
 *   ubik_trace --record shore --requests 1000 --out shore.ubtr
 *
 *   # capture a batch-class stream instead (n/f/t/s)
 *   ubik_trace --record batch:f --accesses 200000 --out friendly.ubtr
 *
 *   # upgrade a legacy v1 trace to the chunked, checksummed v2
 *   ubik_trace --convert legacy.ubtr --out shore.ubtr
 *
 *   # header/chunk/checksum inspection + content hash
 *   ubik_trace --info shore.ubtr
 *
 *   # exact miss curve + inertia statistics (streamed; the file is
 *   # never loaded whole)
 *   ubik_trace --analyze shore.ubtr
 *
 *   # strict-Ubik sizing options at a target size and deadline
 *   ubik_trace --analyze shore.ubtr --target 32768 --deadline-us 1000
 *
 * With no mode flag it prints usage. Real workloads enter the
 * pipeline by converting their own traces to the documented binary
 * format; `ubik_cli --lc-trace` then replays them inside the
 * simulator.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/advisor.h"
#include "trace/access_trace.h"
#include "trace/csv.h"
#include "trace/trace_analyzer.h"
#include "trace/trace_reader.h"
#include "workload/trace_capture.h"
#include "common/cli.h"
#include "common/log.h"

using namespace ubik;

namespace {

TraceWriterOptions
parseFormat(const std::string &s)
{
    TraceWriterOptions opt;
    if (s == "v1")
        opt.version = 1;
    else if (s == "v2")
        opt.version = 2;
    else
        fatal("unknown --format '%s' (v1, v2)", s.c_str());
    return opt;
}

void
doRecord(const std::string &what, std::uint64_t requests,
         std::uint64_t accesses, std::uint64_t seed, double scale,
         const std::string &out, TraceWriterOptions fmt)
{
    if (out.empty())
        fatal("--record needs --out <file>");
    TraceData td;
    if (what.rfind("batch:", 0) == 0) {
        BatchClass cls =
            enumFromName<BatchClass>(what.substr(6), "--record batch:<c>");
        BatchAppParams p = batch_presets::make(cls).scaled(scale);
        td = captureBatchTrace(p, accesses, seed);
        std::printf("captured %llu accesses of batch class '%c'\n",
                    static_cast<unsigned long long>(td.accesses.size()),
                    what[6]);
    } else {
        LcAppParams p = lc_presets::byName(what).scaled(scale);
        td = captureLcTrace(p, requests, seed);
        std::printf("captured %llu requests / %llu accesses of %s\n",
                    static_cast<unsigned long long>(td.requests()),
                    static_cast<unsigned long long>(td.accesses.size()),
                    what.c_str());
    }
    writeTrace(td, out, fmt);
    std::printf("wrote %s (v%u)\n", out.c_str(), fmt.version);
}

void
doConvert(const std::string &in, const std::string &out,
          TraceWriterOptions fmt)
{
    if (out.empty())
        fatal("--convert needs --out <file>");
    // Refuse to clobber the input through any alias (relative vs
    // absolute spelling, symlinks, hard links): the writer truncates
    // the output before the reader has finished.
    std::error_code ec;
    if (std::filesystem::exists(out, ec) &&
        std::filesystem::equivalent(in, out, ec))
        fatal("--convert cannot write onto its input (%s)", in.c_str());
    TraceReader reader(in);
    TraceWriter writer(out, fmt);
    TraceBatch batch;
    // Stream records through: memory stays bounded by one batch no
    // matter how large the trace is.
    while (reader.next(batch))
        forEachRecord(
            batch, [&](double work) { writer.beginRequest(work); },
            [&](Addr a) { writer.access(a); });
    writer.finish();
    std::printf("converted %s (v%u, %llu requests, %llu accesses) -> "
                "%s (v%u)\n",
                in.c_str(), reader.version(),
                static_cast<unsigned long long>(reader.requests()),
                static_cast<unsigned long long>(reader.accesses()),
                out.c_str(), fmt.version);
    std::printf("content hash %016" PRIx64
                " (identical across conversions)\n",
                reader.contentHash());
}

void
doInfo(const std::string &path)
{
    TraceReader reader(path);
    TraceBatch batch;
    // Full validating scan (checksums, counts, footer) — done when
    // next() returns false.
    while (reader.next(batch)) {
    }
    std::printf("[%s] format v%u\n", path.c_str(), reader.version());
    std::printf("  requests:     %llu\n",
                static_cast<unsigned long long>(reader.requests()));
    std::printf("  accesses:     %llu\n",
                static_cast<unsigned long long>(reader.accesses()));
    std::printf("  instructions: %.3g (APKI %.2f)\n", reader.totalWork(),
                reader.totalWork() > 0
                    ? static_cast<double>(reader.accesses()) /
                          reader.totalWork() * 1000.0
                    : 0.0);
    std::printf("  content hash: %016" PRIx64 "\n", reader.contentHash());
    if (reader.version() < 2) {
        std::printf("  chunks:       none (flat v1 stream; convert "
                    "with --convert for checksummed chunks)\n");
        return;
    }
    const std::vector<TraceChunkInfo> &chunks = reader.chunkInfo();
    std::uint64_t minRec = ~0ull, maxRec = 0, payload = 0;
    for (const TraceChunkInfo &c : chunks) {
        std::uint64_t rec = c.requests + c.accesses;
        minRec = std::min(minRec, rec);
        maxRec = std::max(maxRec, rec);
        payload += c.payloadBytes;
    }
    std::printf("  chunks:       %zu (checksums OK)\n", chunks.size());
    if (!chunks.empty()) {
        std::printf("  chunk records: min %llu, max %llu, avg %.0f\n",
                    static_cast<unsigned long long>(minRec),
                    static_cast<unsigned long long>(maxRec),
                    static_cast<double>(reader.requests() +
                                        reader.accesses()) /
                        static_cast<double>(chunks.size()));
        std::printf("  payload bytes: %llu (%.2f bytes/access)\n",
                    static_cast<unsigned long long>(payload),
                    reader.accesses() > 0
                        ? static_cast<double>(payload) /
                              static_cast<double>(reader.accesses())
                        : 0.0);
    }
}

void
doAnalyze(const std::string &path, std::uint64_t target,
          double deadline_us, const std::string &csv)
{
    TraceAnalysis an = analyzeTraceFile(path);
    std::printf("[%s] %llu requests, %llu accesses, APKI %.1f\n",
                path.c_str(),
                static_cast<unsigned long long>(an.requests),
                static_cast<unsigned long long>(an.accesses),
                an.apki());
    std::printf("footprint %llu lines (%.2f MB), cold misses %llu, "
                "cross-request reuse %.0f%%\n",
                static_cast<unsigned long long>(an.footprintLines),
                static_cast<double>(an.footprintLines) * 64 / 1e6,
                static_cast<unsigned long long>(an.coldMisses),
                an.crossRequestReuse * 100);

    if (target == 0)
        target = an.footprintLines / 2 > 0 ? an.footprintLines / 2 : 1;
    std::printf("\nexact LRU miss ratio by size (target %llu lines):\n",
                static_cast<unsigned long long>(target));
    for (double frac : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0})
        std::printf("  %5.2fx: %5.1f%%\n", frac,
                    an.missRatioAtSize(static_cast<std::uint64_t>(
                        frac * static_cast<double>(target))) *
                        100);

    if (!csv.empty()) {
        writeMissCurve(an.missCurve(257, target * 4), csv,
                       static_cast<double>(an.accesses));
        std::printf("\nwrote miss curve to %s\n", csv.c_str());
    }

    if (deadline_us <= 0)
        return;
    CoreProfile prof;
    prof.missPenalty = 100;
    prof.hitCyclesPerAccess = 20;
    prof.missRate = an.missRatioAtSize(target);
    prof.accessesPerCycle = 0.03;
    prof.valid = true;

    AdvisorInput in;
    in.curve = an.missCurve(257, target * 4);
    in.intervalAccesses = an.accesses;
    in.profile = prof;
    in.targetLines = target;
    in.deadline = static_cast<Cycles>(deadline_us * 1e-6 * kClockHz);
    in.boostCap = target * 4;
    AdvisorReport rep = advise(in);

    std::printf("\nstrict-Ubik options at deadline %.0f us:\n",
                deadline_us);
    std::printf("%10s %10s %8s %14s\n", "s_idle", "s_boost", "freed",
                "transient(us)");
    for (const SizingOption &o : rep.options) {
        if (o.feasible)
            std::printf("%10llu %10llu %7.0f%% %14.1f\n",
                        static_cast<unsigned long long>(o.sIdle),
                        static_cast<unsigned long long>(o.sBoost),
                        100.0 * o.freedLines / target,
                        o.transientCycles / kClockHz * 1e6);
        else
            std::printf("%10llu %10s %7.0f%%     infeasible\n",
                        static_cast<unsigned long long>(o.sIdle), "--",
                        100.0 * o.freedLines / target);
    }
    std::printf("best: s_idle=%llu (%.0f%% freed while idle)\n",
                static_cast<unsigned long long>(rep.best.sIdle),
                100.0 * rep.best.freedLines / target);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("ubik_trace",
            "record, convert, inspect, and advise on LLC access traces");
    auto &record =
        cli.flag("record", "",
                 "capture a preset: xapian/masstree/moses/shore/"
                 "specjbb or batch:<n|f|t|s>");
    auto &requests = cli.flag("requests",
                              static_cast<std::int64_t>(500),
                              "requests to capture (LC presets)");
    auto &accesses = cli.flag("accesses",
                              static_cast<std::int64_t>(100000),
                              "accesses to capture (batch classes)");
    auto &scale = cli.flag("scale", 8.0, "preset scale divisor");
    auto &seed = cli.flag("seed", static_cast<std::int64_t>(1),
                          "random seed");
    auto &out = cli.flag("out", "",
                         "output trace file (--record/--convert)");
    auto &format = cli.flag("format", "v2",
                            "output format: v2 (chunked, checksummed) "
                            "or v1 (legacy flat)");
    auto &convert = cli.flag("convert", "",
                             "trace file to re-encode into --out");
    auto &info = cli.flag("info", "",
                          "trace file to inspect (header, chunks, "
                          "checksums, content hash)");
    auto &analyze = cli.flag("analyze", "", "trace file to analyze");
    auto &target = cli.flag("target", static_cast<std::int64_t>(0),
                            "target partition size, lines "
                            "(0 = half the footprint)");
    auto &deadline_us =
        cli.flag("deadline-us", 0.0,
                 "QoS deadline in us (enables the advisor table)");
    auto &csv = cli.flag("csv", "",
                         "write the exact miss curve to this CSV");
    cli.parse(argc, argv);

    const std::uint64_t n_requests = flagInRange(requests, 0, INT64_MAX);
    const std::uint64_t n_accesses = flagInRange(accesses, 0, INT64_MAX);
    const std::uint64_t n_seed = flagInRange(seed, 0, INT64_MAX);
    const std::uint64_t n_target = flagInRange(target, 0, INT64_MAX);
    // The presets' scaled() divides by it (Cli rejects nan and inf).
    if (scale.value < 1)
        fatal("--scale must be >= 1 (got %g)", scale.value);

    if (!record.value.empty()) {
        doRecord(record.value, n_requests, n_accesses, n_seed,
                 scale.value, out.value, parseFormat(format.value));
        return 0;
    }
    if (!convert.value.empty()) {
        doConvert(convert.value, out.value, parseFormat(format.value));
        return 0;
    }
    if (!info.value.empty()) {
        doInfo(info.value);
        return 0;
    }
    if (!analyze.value.empty()) {
        doAnalyze(analyze.value, n_target, deadline_us.value,
                  csv.value);
        return 0;
    }
    cli.printHelp();
    return 1;
}
