/**
 * @file
 * Fixed-work mix methodology (§6): calibration, baselines, and mix
 * runs, with result caching so the evaluation benches stay tractable.
 *
 * Per the paper:
 *  - each LC app is first run alone on a private 2MB-equivalent LLC
 *    in closed loop to find its mean service time, from which the
 *    request rates for 20% and 60% load follow (lambda = load / mu);
 *  - the target tail latency (and Ubik's deadline, the 95th pct
 *    latency) come from an open-loop run alone at that rate;
 *  - batch apps are run alone on the private LLC for their baseline
 *    IPC;
 *  - the mix then runs 3 LC instances + 3 batch apps on the shared
 *    LLC under a given scheme/policy, reporting tail-latency
 *    degradation (vs the private baseline) and weighted speedup.
 */

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/cmp.h"
#include "sim/experiment.h"
#include "workload/mix.h"

namespace ubik {

class ResultCache;

/** Baseline characteristics of one LC app at one load. */
struct LcBaseline
{
    double meanServiceCycles = 0; ///< closed-loop mean service time
    double meanInterarrival = 0;  ///< cycles, for the given load
    double meanLatency = 0;       ///< open-loop mean latency
    double tailMean = 0;          ///< paper tail metric (95th)
    Cycles p95 = 0;               ///< Ubik's deadline
};

/** What one mix run under one scheme produced. */
struct MixRunResult
{
    /** 95th-pct tail mean across the three LC instances, cycles. */
    double lcTailMean = 0;

    /** lcTailMean / baseline tail mean (paper Fig 9/10 y-axis). */
    double tailDegradation = 0;

    /** Mean LC latency degradation (for comparison). */
    double meanDegradation = 0;

    /** (sum IPC_i / IPC_i,alone) / N over the batch apps. */
    double weightedSpeedup = 0;

    /** Per-batch-app speedups. */
    std::vector<double> batchSpeedups;

    /** Ubik runs only: interrupt counts from the de-boost circuit
     *  (zero for other policies). */
    std::uint64_t ubikDeboosts = 0;
    std::uint64_t ubikDeadlineDeboosts = 0;
    std::uint64_t ubikWatermarks = 0;
};

/** Plot data from one mix run (MixRunner::runMix's optional output):
 *  what `ubik_cli --csv-prefix` exports. */
struct MixTrace
{
    /** Per-partition allocation targets over time (Fig 4). */
    std::vector<AllocSample> alloc;

    /** ROI latencies of the three LC instances, merged. */
    LatencyRecorder latencies;
};

/** A policy/scheme configuration under evaluation. */
struct SchemeUnderTest
{
    std::string label;
    SchemeKind scheme = SchemeKind::Vantage;
    ArrayKind array = ArrayKind::Z4_52;
    PolicyKind policy = PolicyKind::Ubik;
    double slack = 0.05;

    /** Remaining Ubik tunables (slack above wins over ubik.slack). */
    UbikConfig ubik{};

    /** Multiplier on the coarse reconfiguration interval (1 = the
     *  paper's 50ms, scaled); used by the parameter ablation. */
    double reconfigScale = 1.0;

    /** Memory-model extension (src/mem/); Fixed is the paper's
     *  model and leaves mix runs untouched. */
    MemKind mem = MemKind::Fixed;
    MemoryParams memParams{};

    /** Partitioned memory only: bandwidth reserved for the LC
     *  instances. The LC apps run unregulated (strict priority); the
     *  batch apps are regulated to split the remainder equally. */
    double lcMemShare = 0.5;

    /** Apply every scheme knob to a CmpConfig. The single source of
     *  truth for mix runs and traced re-runs alike. */
    void applyTo(CmpConfig &cc) const;
};

/** The paper's five evaluated schemes (Fig 9/10/11), Ubik last. */
std::vector<SchemeUnderTest> paperSchemes(double ubik_slack = 0.05);

/**
 * Runs calibrations, baselines, and mixes, caching baselines.
 *
 * Thread-safe: one MixRunner may serve concurrent runMix/baseline
 * calls from a JobPool. Baselines are pure functions of (params,
 * load, seed), so a racing recompute produces the identical value and
 * the first insert wins; cached references stay valid because map
 * inserts never move existing nodes.
 */
class MixRunner
{
  public:
    MixRunner(ExperimentConfig cfg, bool out_of_order = true);

    const ExperimentConfig &config() const { return cfg_; }

    /** Core model flavour (enters the persistent cache keys). */
    bool outOfOrder() const { return ooo_; }

    /**
     * Persist baselines through `cache` (not owned; may be null to
     * detach): on an in-memory miss the persistent store is consulted
     * before computing, and computed baselines are stored back. The
     * cached values are bit-exact, so attaching a cache never changes
     * any result.
     */
    void attachCache(ResultCache *cache) { cache_ = cache; }

    /** The attached persistent cache, or null. */
    ResultCache *cache() const { return cache_; }

    /**
     * Baseline for an LC app at a load (cached). `params` must be
     * full-scale; scaling happens internally.
     */
    const LcBaseline &lcBaseline(const LcAppParams &params, double load,
                                 std::uint64_t seed);

    /** Alone-IPC for a batch app on the private LLC (cached). */
    double batchAloneIpc(const BatchAppParams &params,
                         std::uint64_t seed);

    /**
     * Run one mix under one scheme. Trace-backed LC configs
     * (MixSpec::lc.traces) and batch mixes (MixSpec::batch.traces)
     * replay inside the shared-LLC simulation; baselines always come
     * from the synthetic params, so a traced mix and its source
     * preset share them (workload/mix.h). A non-null `trace_out`
     * also receives the allocation trace and the merged LC
     * latencies; recording them leaves the result bit-identical.
     */
    MixRunResult runMix(const MixSpec &spec, const SchemeUnderTest &sut,
                        std::uint64_t seed, MixTrace *trace_out = nullptr);

    /** Master seed runMix hands the mix Cmp for sweep seed `seed` —
     *  capture-fidelity harnesses derive per-core app RNGs from it
     *  via Cmp::appRng. */
    static std::uint64_t
    mixCmpSeed(std::uint64_t seed)
    {
        return seed * 15485863 + 17;
    }

    /** Convenience: run an LC app alone (private LLC, open loop) and
     *  return the merged latency recorder; used by Fig 1. */
    LatencyRecorder runAlone(const LcAppParams &params, double load,
                             std::uint64_t seed,
                             LatencyRecorder *service_times = nullptr);

    /** Cache key of an LC baseline — ParallelSweep deduplicates its
     *  prewarm jobs with the exact key the cache uses. */
    std::string lcKey(const LcAppParams &params, double load,
                      std::uint64_t seed) const;

    /** Cache key of a batch alone-IPC baseline. */
    std::string batchKey(const BatchAppParams &params,
                         std::uint64_t seed) const;

  private:
    ExperimentConfig cfg_;
    bool ooo_;
    ResultCache *cache_ = nullptr; ///< optional persistent store
    std::mutex cacheMu_; ///< guards the two baseline caches
    std::map<std::string, LcBaseline> lcCache_;
    std::map<std::string, double> batchCache_;
};

} // namespace ubik
