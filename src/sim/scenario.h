/**
 * @file
 * Declarative scenario API: one experiment — a figure, a table, an
 * ablation, or anything a user dreams up — described as pure data.
 *
 * A ScenarioSpec names the scheme table (SchemeUnderTest values),
 * how to select mixes (the standard matrix, the cache-hungry subset,
 * or explicit preset/trace-backed mixes), the core model, a seed
 * count, and the list of report blocks to render. runScenario()
 * executes any spec through the existing methodology stack —
 * MixRunner for calibration/baselines, ParallelSweep for the
 * engine, ResultCache for persistence — so a spec run is
 * bit-identical to the hand-written bench loops it replaces
 * (tests/integration/scenario_golden_test.cpp pins this for fig9).
 *
 * Specs round-trip losslessly through JSON (common/json.h):
 * `scenarioFromJson(scenarioToJson(s))` is canonical-equal to `s`,
 * which is what lets `ubik_run --spec file.json` and `--dump` treat
 * experiments as data. Every paper figure/ablation that sweeps mixes
 * is registered as a named built-in spec (ScenarioRegistry), which
 * `ubik_run <name>` runs.
 *
 * Experiment *scale* stays environmental (UBIK_SCALE, UBIK_REQUESTS,
 * ... — sim/experiment.h): a spec describes *what* to run, the
 * environment describes *how big*, so the same spec serves CI smoke
 * runs and paper-scale sweeps. The spec's `seeds` field and
 * `--set seeds=N` overrides take precedence over UBIK_SEEDS.
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/enum_names.h"
#include "common/json.h"
#include "fleet/fleet_model.h"
#include "report/report.h"
#include "sim/mix_runner.h"
#include "workload/load_profile.h"
#include "workload/mix.h"

namespace ubik {

/** Where a scenario's mixes come from. */
enum class MixSource
{
    Standard,    ///< the paper's LC-config x batch-mix matrix
    CacheHungry, ///< workload/mix.h cacheHungryMixes()
    Explicit,    ///< ScenarioSpec::mixes
};

template <>
struct EnumNames<MixSource>
{
    static constexpr const char *noun = "mix source";
    static constexpr EnumSpelling<MixSource> spellings[] = {
        {MixSource::Standard, "standard"},
        {MixSource::CacheHungry, "cache-hungry"},
        {MixSource::Explicit, "explicit"},
    };
};

/** One text/file report block rendered after the sweep. */
enum class ReportKind
{
    Distributions,  ///< Fig 9/13-style quantile rows
    Averages,       ///< Table 3-style averages (+ UBIK_CSV_DIR)
    PerApp,         ///< Fig 10/11-style per-LC-app breakdown
    UbikInterrupts, ///< de-boost interrupt mix (deboost ablation)
    Csv,            ///< <tag>_runs.csv into UBIK_CSV_DIR (or .)
    Json,           ///< <tag>_results.json into UBIK_JSON_DIR (or .)
};

template <>
struct EnumNames<ReportKind>
{
    static constexpr const char *noun = "report kind";
    static constexpr EnumSpelling<ReportKind> spellings[] = {
        {ReportKind::Distributions, "distributions"},
        {ReportKind::Averages, "averages"},
        {ReportKind::PerApp, "per-app"},
        {ReportKind::UbikInterrupts, "ubik-interrupts"},
        {ReportKind::Csv, "csv"},
        {ReportKind::Json, "json"},
    };
};

struct ReportBlock
{
    ReportKind kind = ReportKind::Averages;
    std::string tag;                  ///< grep prefix / file stem
    LoadBand band = LoadBand::All;    ///< row filter (mix metadata)
};

/** One batch-app slot of an explicit mix, by preset. */
struct BatchSel
{
    BatchClass cls = BatchClass::Friendly;
    std::uint32_t variation = 0;
};

/**
 * One explicit mix, described by presets so it serializes small and
 * human-writable; trace paths make it trace-backed (loaded when the
 * scenario is expanded, content-hashed into cache keys).
 */
struct ScenarioMix
{
    std::string name;      ///< empty = "<lc>-<lo|hi>/<batchName>"
    std::string lcPreset = "masstree";
    double load = 0.2;
    std::array<BatchSel, 3> batch;
    std::string batchName; ///< empty = the three class codes

    /** 0, 1, or 3 .ubtr paths each (workload/mix.h semantics). */
    std::vector<std::string> lcTraces;
    std::vector<std::string> batchTraces;
};

/** Pure-data description of one experiment. */
struct ScenarioSpec
{
    std::string name;  ///< registry key / CLI name, e.g. "fig9"
    std::string title; ///< bench header line
    std::string notes; ///< "expected shape" epilogue (optional)

    std::vector<SchemeUnderTest> schemes;

    MixSource source = MixSource::Standard;

    /** Cap on batch mixes per LC config for the Standard source
     *  (0 = UBIK_MIXES; nonzero caps it, like the legacy benches'
     *  min(cfg.mixesPerLc, N)). */
    std::uint32_t mixesPerLcCap = 0;

    /** Mix-selection load filter (reports can filter further). */
    LoadBand band = LoadBand::All;

    /** MixSource::Explicit only. */
    std::vector<ScenarioMix> mixes;

    bool ooo = true;          ///< out-of-order vs in-order cores
    std::uint32_t seeds = 0;  ///< 0 = UBIK_SEEDS

    /**
     * Time-varying offered load, stamped into every selected mix's
     * LC side (workload/load_profile.h). Constant (the default)
     * reproduces the legacy fixed-rate arrivals bit for bit.
     * Serialized as the "load_profile" spec block; the baselines the
     * SLO is judged against always run at the constant nominal rate.
     */
    LoadProfile profile;

    /**
     * Fleet stage (fleet/fleet_model.h): after the sweep, compose
     * the per-server results into a datacenter of `fleet.servers`
     * machines driven by the open-loop arrival model. servers == 0
     * (the default) means no fleet stage; serialized as the "fleet"
     * spec block only when present.
     */
    FleetSpec fleet;

    std::vector<ReportBlock> reports;
};

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

/**
 * Serialize a spec, kinds by their canonical names. Each spec
 * struct's JSON keys are declared once, in its field list in
 * scenario.cpp, which this writer and the parser both walk. A key at
 * its "unset" value (empty notes, a constant load_profile, no fleet,
 * ...) is left out.
 */
Json scenarioToJson(const ScenarioSpec &spec);

/**
 * Parse a spec. Missing fields take their defaults; unknown keys,
 * ill-typed values and out-of-range integers are fatal() with the
 * offending key named, so spec file typos fail loudly instead of
 * silently running the default. Integer fields take [0, 2^32-1]; the
 * four seeds (fleet.queue_seed, fleet.placement_seed,
 * fleet.arrivals.seed, load_profile.burst_seed) take [0, 2^53-1],
 * every integer a JSON number holds exactly.
 */
ScenarioSpec scenarioFromJson(const Json &j);

/** Pretty-printed scenarioToJson() — the canonical form `--dump`
 *  emits and the round-trip tests compare. */
std::string scenarioCanonicalJson(const ScenarioSpec &spec);

// ---------------------------------------------------------------------------
// Overrides (`ubik_run --set key=value`)
// ---------------------------------------------------------------------------

/**
 * Apply one "key=value" override; scenarioOverrideKeys() lists the
 * keys. fatal() on unknown keys or bad values, among them an empty
 * or duplicate-label `schemes` filter (a zero-scheme sweep is never
 * what the user meant) and `servers` on a spec without a fleet
 * stage. Later overrides win (sequential application), and all of
 * them win over the spec file / registry values.
 */
void applyScenarioOverride(ScenarioSpec &spec,
                           const std::string &assignment);

void applyScenarioOverrides(ScenarioSpec &spec,
                            const std::vector<std::string> &sets);

/** The `--set` keys, each with what it edits where the key alone
 *  does not say: "seeds, mixes (per-LC mix cap), ...". */
std::string scenarioOverrideKeys();

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/** `cfg` with the spec's overriding fields (seeds) applied. */
ExperimentConfig scenarioConfig(const ScenarioSpec &spec,
                                ExperimentConfig cfg);

/** Expand the spec's mix selection against `cfg` (loads traces for
 *  trace-backed explicit mixes). */
std::vector<MixSpec> buildScenarioMixes(const ScenarioSpec &spec,
                                        const ExperimentConfig &cfg);

/** What one sweep cost this worker: the numbers behind the
 *  [sweep-summary] line, exported into the results JSON when
 *  accounting is requested (`ubik_run --accounting`). */
struct SweepAccounting
{
    std::string worker;       ///< worker id ("local" solo)
    std::size_t jobs = 0;     ///< (scheme, mix, seed) jobs total
    std::size_t hits = 0;     ///< served from the result cache
    std::size_t computed = 0; ///< simulated here
    std::size_t remote = 0;   ///< claimed + published elsewhere
    std::uint64_t degraded = 0; ///< cache degradation events
    double elapsedSec = 0;    ///< sweep wall-clock
    unsigned workers = 0;     ///< thread-pool width used
};

/**
 * Run `schemes` x `mixes` x seeds through the parallel experiment
 * engine with the persistent result cache attached (cfg.cacheDir).
 * Results are grouped per scheme with full mix metadata, and are
 * bit-identical across worker counts and cache states. This is the
 * one sweep path: scenarios and tools all run through it.
 * A non-null `shared` cache is used instead of opening cfg.cacheDir
 * (the serving daemon keeps one warm cache across requests); `acct`
 * receives the per-worker accounting when non-null. The progress,
 * [sweep-summary], [cache] and per-scheme lines go to `progress`;
 * nullptr prints nothing (the daemon, unless --verbose).
 */
std::vector<SweepResult>
runSchemeSweep(const ExperimentConfig &cfg,
               const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, bool ooo = true,
               ResultCache *shared = nullptr,
               SweepAccounting *acct = nullptr,
               std::FILE *progress = stderr);

struct ScenarioResult
{
    std::vector<MixSpec> mixes;      ///< expanded selection
    std::vector<SweepResult> sweeps; ///< one per spec scheme
    SweepAccounting accounting;
    FleetResult fleet;               ///< valid iff hasFleet
    bool hasFleet = false;
};

/** Execute a spec end to end (validation, mixes, sweep, and the
 *  fleet composition when spec.fleet.servers > 0). `progress` is
 *  runSchemeSweep's. */
ScenarioResult runScenario(const ScenarioSpec &spec,
                           const ExperimentConfig &cfg,
                           ResultCache *shared = nullptr,
                           std::FILE *progress = stderr);

/** Render the spec's report blocks for a finished run. */
void renderReports(const ScenarioSpec &spec,
                   const ScenarioResult &res);

/**
 * The results-JSON document for a finished run: resultsToJson()
 * plus a "fleet" member when the spec ran a fleet stage, plus a
 * "sweep" accounting member when `accounting` is set (opt-in
 * because wall-clock values break byte-identical reruns).
 */
Json scenarioResultsJson(const ScenarioSpec &spec,
                         const ScenarioResult &res, bool accounting);

/**
 * The whole experiment, stdout to epilogue: apply the spec's config
 * overrides, print the header, run, render the report blocks, write
 * the structured JSON results to `results_path` (empty = skip), and
 * print the notes. The one execution path `ubik_run` takes. Returns
 * the process exit code.
 */
int executeScenario(const ScenarioSpec &spec, ExperimentConfig cfg,
                    const std::string &results_path = "",
                    bool accounting = false);

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/** The named built-in specs: every mix-sweeping paper figure and
 *  ablation. */
class ScenarioRegistry
{
  public:
    static const ScenarioRegistry &instance();

    /** Spec by name, or nullptr. */
    const ScenarioSpec *find(const std::string &name) const;

    /** All specs, in presentation order (figures then ablations). */
    const std::vector<ScenarioSpec> &all() const;

  private:
    explicit ScenarioRegistry(std::vector<ScenarioSpec> specs)
        : specs_(std::move(specs))
    {
    }

    std::vector<ScenarioSpec> specs_;
};

} // namespace ubik
