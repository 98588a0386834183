/**
 * @file
 * Workload-mix construction following the paper's methodology (§6).
 *
 * Each six-core mix runs three instances of one LC app (each serving
 * different requests) plus three batch apps. Batch mixes cover all 20
 * order-insensitive combinations of the four classes {n, f, t, s}
 * taken three at a time with repetition, two randomized mixes per
 * combination (40 batch mixes). Crossed with the 10 LC configurations
 * (5 apps x {20%, 60%} load) this yields the paper's 400 mixes.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/batch_app.h"
#include "workload/lc_app.h"
#include "workload/load_profile.h"
#include "workload/trace_app.h"

namespace ubik {

/** One three-app batch mix. */
struct BatchMix
{
    std::string name; ///< e.g. "nft-0"
    std::array<BatchAppParams, 3> apps;

    /**
     * Trace-backed replay, mirroring LcConfig::traces. Empty: the
     * three apps run the synthetic generators from `apps`. One
     * entry: all three apps loop that trace (disjoint via
     * per-instance address salting). Three entries: per-app traces.
     * `apps` still supplies the timing model (apki, mlp, baseIpc)
     * and drives the alone-IPC baselines, so traced mixes share
     * baselines — and cached results — with their synthetic preset;
     * the traces' content hashes enter the ResultCache mix key.
     */
    std::vector<std::shared_ptr<const TraceApp>> traces;
};

/** One LC configuration: an app preset at a load point. */
struct LcConfig
{
    LcAppParams app;
    double load = 0.2; ///< offered load rho = lambda/mu

    /**
     * Time-varying arrival-rate shape around the nominal `load`
     * (workload/load_profile.h). Constant (the default) is the
     * legacy fixed-rate open loop, bit for bit. Applies to mix runs
     * only — baselines are always calibrated at the constant nominal
     * rate, so the SLO reference point is load-profile-independent.
     * The profile's canonical form enters the ResultCache mix key.
     */
    LoadProfile profile{};

    /**
     * Trace-backed replay. Empty: the three instances run the
     * synthetic generator from `app`. One entry: all three instances
     * replay that trace (disjoint via per-instance address salting).
     * Three entries: per-instance traces (what capture-fidelity runs
     * use — each instance replays the stream it would have
     * generated). `app` still supplies the timing model (mlp,
     * baseIpc) and drives the baseline calibration, so captured-from-
     * preset traces share baselines — and therefore cached results —
     * with their preset; for external traces derive calibrated
     * params from `ubik_trace --analyze` first. The traces' content
     * hashes enter the ResultCache key (sim/result_cache.h).
     */
    std::vector<std::shared_ptr<const TraceApp>> traces{};
};

/** One full six-core mix: 3 LC instances + 3 batch apps. */
struct MixSpec
{
    std::string name; ///< e.g. "xapian-lo/nft-0"
    LcConfig lc;
    BatchMix batch;
};

/** Offered-load boundary between the "-lo" and "-hi" mix families
 *  (the paper evaluates 20% and 60% load). Structured metadata —
 *  reports and scenario filters key on this, never on mix-name
 *  substrings. */
constexpr double kLowLoadThreshold = 0.4;

inline bool
isLowLoad(double load)
{
    return load < kLowLoadThreshold;
}

/** The 20 order-insensitive class triples, in lexicographic order. */
std::vector<std::array<BatchClass, 3>> batchClassCombos();

/**
 * Build the batch mixes: `per_combo` randomized mixes per class
 * combination (paper: 2, for 40 total).
 */
std::vector<BatchMix> buildBatchMixes(std::uint32_t per_combo = 2,
                                      std::uint64_t seed = 1);

/** The 10 LC configurations: each preset at 20% and 60% load. */
std::vector<LcConfig> buildLcConfigs();

/**
 * Cross LC configs and batch mixes.
 * @param max_batch_mixes cap on batch mixes used per LC config
 *        (scaled runs use fewer; 0 = all)
 */
std::vector<MixSpec> buildMixes(std::uint32_t per_combo = 2,
                                std::uint64_t seed = 1,
                                std::uint32_t max_batch_mixes = 0);

/**
 * Mixes whose batch apps have real marginal utility for freed cache
 * space (friendly/fitting/streaming classes). Ubik only downsizes —
 * and so only boosts and de-boosts — when the cost-benefit analysis
 * sees batch demand, so knob ablations sweep these instead of the
 * full matrix (where insensitive combos dilute the signal to zero).
 */
std::vector<MixSpec> cacheHungryMixes();

} // namespace ubik
