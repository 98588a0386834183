/**
 * @file
 * Fleet model: the paper's §7.1 datacenter claim at datacenter scale.
 *
 * A FleetSpec describes N servers, each one mix of the scenario
 * (kMixLcInstances LC instances with kMixBatchApps batch apps,
 * workload/mix.h) under the scenario's schemes. Cluster load comes
 * from the open-loop arrival model (fleet/arrivals.h); per-server
 * colocation is chosen by the offline Ubik advisor (core/advisor.h)
 * from a captured trace of each LC preset; per-server cache
 * behaviour comes from the scenario sweep's
 * MixRunner results (already computed, cached, and bit-identical);
 * and per-server *end-to-end* tails come from composing those results
 * through the G/G/k queue simulator (queueing/queue_sim.h).
 *
 * The composition runs single-threaded after the sweep, memoizes
 * QueueSim runs on quantized load buckets, keeps each queue tail and
 * advisor verdict in the result cache (so a warm query simulates
 * nothing), and draws all randomness from pure seed streams — so
 * fleet results are bit-identical across UBIK_JOBS, cache states,
 * and fleet worker counts, exactly like the sweep results they are
 * built from.
 *
 * Outputs, per scheme: fleet-wide p95/p99 end-to-end tail latency,
 * utilization vs a dedicated (LC-only) fleet, machines saved vs
 * dedicated and vs the StaticLC partitioning scheme when the spec
 * includes one — the paper's headline "~6x utilization without
 * violating tail latency", measured over thousands of servers.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "fleet/arrivals.h"
#include "report/report.h"
#include "sim/experiment.h"
#include "sim/mix_runner.h"

namespace ubik {

class ResultCache;

/** The fleet stage of a ScenarioSpec (pure data; the "fleet" JSON
 *  block). servers == 0 means the scenario has no fleet stage. */
struct FleetSpec
{
    /** Simulated servers (the paper's claim needs >= 1000). */
    std::uint32_t servers = 0;

    /** Cluster-load model (users, dynamics, imbalance). */
    ArrivalSpec arrivals;

    /** G/G/k workers per LC instance; 0 = autosize the smallest
     *  k <= 8 whose interference-free tail meets tailTargetMs (the
     *  worker_sizing methodology). */
    std::uint32_t queueWorkers = 1;

    /** Cross-worker service inflation / OLTP-style abort probability
     *  (queueing/queue_sim.h); both also apply to the alone runs, so
     *  they model non-cache effects and never double-count the
     *  MixRunner degradation. */
    double interference = 0.0;
    double abortProb = 0.0;

    /** Autosize tail target, real ms; 0 = 4x the LC app's mean
     *  service time. */
    double tailTargetMs = 0.0;

    /** fatal() (naming `what`) unless the parameters make sense;
     *  no-op when servers == 0. */
    void validate(const char *what) const;
};

/** The advisor's colocation verdict for one LC group (shared across
 *  schemes: the plan is a property of the workload, so the scheme
 *  comparison runs on identical placements). */
struct FleetPlanRow
{
    std::string lc;       ///< LC preset name
    std::string placement; ///< "rotate" (downsizable) or bundle name
    bool canDownsize = false;
    std::uint64_t freedLines = 0;  ///< advisor best-option space
    double transientUs = 0;        ///< refill bound, real us
    std::uint32_t servers = 0;     ///< servers hosting this group
};

/** Fleet-wide aggregates for one scheme. */
struct FleetSchemeResult
{
    std::string label;

    /** Mean offered LC load over the (slice, server) grid. */
    double meanLoad = 0;

    /** Mean core utilization colocated / dedicated-LC-only. */
    double utilization = 0;
    double dedicatedUtil = 0;
    double utilizationLift = 0; ///< utilization / dedicatedUtil

    /** Fleet-wide end-to-end tail percentiles, real ms (nearest
     *  rank over every (slice, server) queue tail). */
    double tailP95Ms = 0;
    double tailP99Ms = 0;

    /** Fraction of (slice, server) samples whose end-to-end tail
     *  degradation exceeds 1 + slack + a 5% queueing-noise margin. */
    double sloViolationFrac = 0;

    /** Batch throughput in dedicated-batch-core equivalents
     *  (sum over servers of kMixBatchApps x weighted speedup,
     *  averaged over slices). */
    double batchCoreEquivalents = 0;

    /** Machines of (lc+batch) cores a dedicated-batch fleet would
     *  need for the same batch throughput. */
    double machinesSavedVsDedicated = 0;

    /** Extra machines saved vs the spec's StaticLC scheme (0 when
     *  the spec has none, or for the StaticLC scheme itself). */
    double machinesSavedVsStatic = 0;

    /** Mean G/G/k workers per LC instance (autosize visibility). */
    double meanWorkers = 0;
};

/** Everything the fleet stage produced. */
struct FleetResult
{
    std::uint32_t servers = 0;
    std::uint32_t slices = 0;
    double users = 0;              ///< millions
    double impliedPerUserRps = 0;  ///< cluster rate / users
    std::uint32_t serversDownsizable = 0;

    std::vector<FleetPlanRow> plan;
    std::vector<FleetSchemeResult> schemes;
};

/**
 * Compose the scenario sweep's results into fleet-wide aggregates.
 *
 * @param fs      the fleet stage (servers >= 1)
 * @param schemes the scenario's scheme table (order defines the
 *                result order; a PolicyKind::StaticLc entry becomes
 *                the machines-saved comparison base)
 * @param mixes   the expanded scenario mixes, in sweep order
 * @param sweeps  runSchemeSweep() output for (schemes, mixes): one
 *                SweepResult per scheme, runs in (mix, seed) order
 * @param cfg     experiment scale/seed configuration
 * @param ooo     core model flavour (matches the sweep)
 * @param cache   the sweep's cache (not null), holding the LC
 *                baselines the composition needs; the stage looks its
 *                queue tails and advisor verdicts up there too, and
 *                stores each one it has to compute
 */
FleetResult runFleet(const FleetSpec &fs,
                     const std::vector<SchemeUnderTest> &schemes,
                     const std::vector<MixSpec> &mixes,
                     const std::vector<SweepResult> &sweeps,
                     const ExperimentConfig &cfg, bool ooo,
                     ResultCache *cache);

/** Print the [fleet] / [fleet-plan] / [fleet-summary] report rows. */
void printFleetReport(const FleetResult &fr);

/** Write the fleet result as one JSON object (round-trip doubles:
 *  bit-identical fleets produce byte-identical JSON). */
void writeFleet(JsonWriter &w, const FleetResult &fr);

/** The written fleet result as a tree. */
Json fleetToJson(const FleetResult &fr);

} // namespace ubik
