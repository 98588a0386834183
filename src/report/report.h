/**
 * @file
 * Report layer: renders sweep results as the paper's tables and
 * figures (distribution rows, averages, per-app breakdowns), as CSV
 * for plotting, and as structured JSON for machine consumers.
 *
 * Extracted from bench/bench_util.h so scenarios (sim/scenario.h)
 * select report blocks as *data* and the `ubik_run` driver renders
 * them — benches, the CLI tools, and CI all print through the same
 * code. Every text block emits machine-readable rows prefixed by a
 * caller-chosen tag so output can be grepped into plotting scripts;
 * results never need to match the paper's absolute numbers
 * (different substrate) — the *shape* (orderings, crossovers, rough
 * factors) is the reproduction target.
 *
 * The JSON export writes doubles in round-trip form, so bit-identical
 * sweeps produce byte-identical files — `diff` is a determinism
 * check (CI diffs a warm-cache rerun against the cold run).
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/enum_names.h"
#include "common/json.h"
#include "sim/mix_runner.h"

namespace ubik {

class ResultCache;

/** All results one scheme produced over a mix sweep, with the mix
 *  metadata reports group and filter on. The four vectors are
 *  parallel: entry i is one (mix, seed) run. */
struct SweepResult
{
    std::string label; ///< scheme label (SchemeUnderTest::label)
    std::vector<MixRunResult> runs;
    std::vector<std::string> mixNames;
    std::vector<double> mixLoads;      ///< offered LC load per run
    std::vector<std::uint64_t> seeds;  ///< seed per run
};

/** Load bands reports (and scenario mix selection) filter on; the
 *  boundary matches the "-lo"/"-hi" mix-name tags (workload/mix.h's
 *  isLowLoad). */
enum class LoadBand
{
    All,
    Low,
    High,
};

template <>
struct EnumNames<LoadBand>
{
    static constexpr const char *noun = "load band";
    static constexpr EnumSpelling<LoadBand> spellings[] = {
        {LoadBand::All, "all"},
        {LoadBand::Low, "low"},
        {LoadBand::High, "high"},
    };
};

/** The subset of each sweep's runs whose mix load falls in `band`,
 *  selected on structured mix metadata (mixLoads), not name
 *  substrings. */
std::vector<SweepResult>
filterByLoad(const std::vector<SweepResult> &sweeps, LoadBand band);

/** Fig 9/13-style distribution dump: per scheme, runs sorted worst
 *  to best, printed at evenly spaced quantiles. */
void printDistributions(const std::vector<SweepResult> &sweeps,
                        const char *tag);

/** Table 3-style averages (also exports CSV when UBIK_CSV_DIR is
 *  set, matching the legacy bench behaviour). */
void printAverages(const std::vector<SweepResult> &sweeps,
                   const char *tag);

/** Fig 10/11-style per-LC-app breakdown: overall + worst-mix tail
 *  degradation and average weighted speedup. */
void printPerApp(const std::vector<SweepResult> &sweeps,
                 const char *tag);

/** De-boost interrupt mix per scheme (the accurate-de-boosting
 *  ablation; zero rows for non-Ubik policies). */
void printUbikInterrupts(const std::vector<SweepResult> &sweeps,
                         const char *tag);

/** Write every (scheme, mix, seed) run as <dir>/<tag>_runs.csv. */
void exportCsv(const std::vector<SweepResult> &sweeps, const char *tag,
               const std::string &dir);

/** exportCsv() into UBIK_CSV_DIR if set; no-op otherwise. */
void maybeExportCsv(const std::vector<SweepResult> &sweeps,
                    const char *tag);

/**
 * The structured-results document as a JSON value: per scheme, per
 * run, the mix name/load/seed and every MixRunResult field, doubles
 * in round-trip form (bit-identical results => byte-identical
 * serializations). The file writer and the serving daemon both
 * render this one construction, so their outputs agree byte for
 * byte. `scenario` labels the export (empty = omitted).
 */
Json resultsToJson(const std::vector<SweepResult> &sweeps,
                   const std::string &scenario);

/** Write `doc` pretty-printed plus a trailing newline to `path`
 *  (binary mode); fatal() on open or flush failure. */
void writeJsonFile(const Json &doc, const std::string &path);

/** writeJsonFile(resultsToJson(sweeps, scenario), path). */
void writeResultsJson(const std::vector<SweepResult> &sweeps,
                      const std::string &scenario,
                      const std::string &path);

/** Print a ResultCache's counters (sweep epilogue, --cache-stats). */
void printCacheStats(const ResultCache &cache, std::FILE *out = stderr);

} // namespace ubik
