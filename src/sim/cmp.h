/**
 * @file
 * The simulated CMP (Fig 3, Table 2): N cores, a shared partitioned
 * LLC (or per-core private LLCs for baselines), utility monitors, MLP
 * profilers, a partitioning policy, and the client-server request
 * harness from §3.2.
 *
 * The event loop works at LLC-access granularity: each core exposes
 * the cycle of its next event (an LLC access, a pure-compute chunk,
 * or an idle wake-up), and the loop repeatedly services the earliest
 * one, interleaved with the periodic reconfiguration timer. Cores
 * interact only through cache contents and partition sizes, matching
 * the paper's fixed-latency LLC/memory model (§6).
 *
 * Request harness: Markov (exponential) interarrivals at a
 * configurable rate, FIFO single-worker service, and interrupt
 * coalescing modeled as a 50us delivery timeout on idle wake-ups.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cache/scheme.h"
#include "core/ubik_policy.h"
#include "mem/memory_system.h"
#include "policy/policy.h"
#include "sim/core_model.h"
#include "sim/event_queue.h"
#include "stats/latency_recorder.h"
#include "workload/batch_app.h"
#include "workload/lc_app.h"
#include "workload/load_profile.h"
#include "common/enum_names.h"
#include "common/rng.h"
#include "common/types.h"

namespace ubik {

/** LLC array organizations evaluated in Fig 13. */
enum class ArrayKind
{
    Z4_52, ///< 4-way 52-candidate zcache (default, Table 2)
    SA16,  ///< 16-way set-associative
    SA64,  ///< 64-way set-associative
};

/** Partition-enforcement schemes. */
enum class SchemeKind
{
    SharedLru, ///< unpartitioned (the LRU baseline)
    Vantage,
    WayPart,
};

/** Partitioning policies (§4, §5, plus the Feedback baseline). */
enum class PolicyKind
{
    Lru,
    Ucp,
    StaticLc,
    OnOff,
    Ubik,
    Feedback, ///< long-term-adaptation strawman (src/policy/feedback_policy.h)
};

template <>
struct EnumNames<ArrayKind>
{
    static constexpr const char *noun = "array";
    static constexpr EnumSpelling<ArrayKind> spellings[] = {
        {ArrayKind::Z4_52, "Z4/52"},
        {ArrayKind::SA16, "SA16"},
        {ArrayKind::SA64, "SA64"},
        {ArrayKind::Z4_52, "zcache"}, // CLI alias for the default
    };
};

template <>
struct EnumNames<SchemeKind>
{
    static constexpr const char *noun = "scheme";
    static constexpr EnumSpelling<SchemeKind> spellings[] = {
        {SchemeKind::SharedLru, "LRU"},
        {SchemeKind::Vantage, "Vantage"},
        {SchemeKind::WayPart, "WayPart"},
    };
};

template <>
struct EnumNames<PolicyKind>
{
    static constexpr const char *noun = "policy";
    static constexpr EnumSpelling<PolicyKind> spellings[] = {
        {PolicyKind::Lru, "LRU"},
        {PolicyKind::Ucp, "UCP"},
        {PolicyKind::StaticLc, "StaticLC"},
        {PolicyKind::OnOff, "OnOff"},
        {PolicyKind::Ubik, "Ubik"},
        {PolicyKind::Feedback, "Feedback"},
    };
};

/**
 * enumFromName<SchemeKind>() plus the CLI's "auto" spelling: the LRU
 * policy runs unpartitioned, every other policy under Vantage.
 */
SchemeKind schemeKindFromNameOrAuto(const std::string &name,
                                    PolicyKind policy);

/** Machine + policy configuration for one simulation. */
struct CmpConfig
{
    CoreParams core;

    SchemeKind scheme = SchemeKind::Vantage;
    ArrayKind array = ArrayKind::Z4_52;
    PolicyKind policy = PolicyKind::Ubik;

    /** Shared LLC capacity, lines (Table 2: 12MB = 196608). */
    std::uint64_t llcLines = 196608;

    /** Ubik slack (fraction of the deadline; 0 = strict). */
    double slack = 0.0;

    /** Remaining Ubik tunables (idle options, de-boost guard, the
     *  accurate-de-boost ablation switch...). `slack` above overrides
     *  `ubik.slack` so existing sweep code keeps working. */
    UbikConfig ubik;

    /** Private per-core LLCs instead of a shared one (baseline). */
    bool privateLlc = false;
    std::uint64_t privateLinesPerCore = 32768;

    /** Coarse reconfiguration period, cycles (paper: 50ms). */
    Cycles reconfigInterval = msToCycles(50);

    /** Interrupt-coalescing timeout, cycles (paper: 50us). */
    Cycles coalesceCycles = static_cast<Cycles>(50e-6 * kClockHz);

    /** UMON geometry (paper: 32 ways x 8 sets per core). */
    std::uint32_t umonWays = 32;
    std::uint32_t umonSets = 8;

    /** Record Fig 2's hits-by-requests-ago breakdown. */
    bool trackInertia = false;

    /** Sample per-partition target sizes for Fig 4 timelines. */
    bool traceAllocations = false;
    Cycles traceInterval = msToCycles(1);

    /** Hard stop (guards against configuration mistakes). */
    Cycles maxCycles = 0; ///< 0 = auto (scaled from the workload)

    /** Memory model (Fixed reproduces the paper; the others enable
     *  the bandwidth-contention extension, see src/mem/). */
    MemKind mem = MemKind::Fixed;
    MemoryParams memParams;

    /** Per-app bandwidth shares for MemKind::Partitioned (empty =
     *  equal shares). Must have one entry per core if set; entries
     *  <= 0 mark the app unregulated (strict priority, for LC apps). */
    std::vector<double> memShares;
};

/** One LC app instance bound to a core. */
struct LcAppSpec
{
    LcAppParams params; ///< already scaled

    /** Optional captured trace to replay instead of the synthetic
     *  generator (LcApp::bindTrace); params still supplies the
     *  timing model (mlp, baseIpc) and the QoS knobs below. */
    std::shared_ptr<const TraceData> trace;

    /** Mean interarrival time, cycles (0 = closed loop: the next
     *  request arrives the instant the previous one completes). */
    double meanInterarrival = 0;

    /**
     * Time-varying arrival-rate shape around `meanInterarrival`
     * (workload/load_profile.h): each exponential gap is divided by
     * the profile's rate multiple at the previous arrival's
     * position in the nominal warmup+ROI span. Constant (default)
     * takes the legacy fixed-rate arithmetic path, bit for bit, and
     * no profile ever consumes extra RNG draws — so adding one
     * never perturbs the app stream fork order or any co-runner.
     */
    LoadProfile profile;

    /** Requests measured in the ROI (after warmup). */
    std::uint64_t roiRequests = 200;

    /** Warmup requests before the ROI. */
    std::uint64_t warmupRequests = 50;

    /** Partition target size, lines (2MB-equivalent by default). */
    std::uint64_t targetLines = 32768;

    /** QoS deadline, cycles (95th pct latency at the target size). */
    Cycles deadline = 0;
};

/** One batch app bound to a core. */
struct BatchAppSpec
{
    BatchAppParams params; ///< already scaled

    /** Optional captured trace to replay instead of the synthetic
     *  generator (BatchApp::bindTrace); params still supplies the
     *  timing model (apki, mlp, baseIpc). */
    std::shared_ptr<const TraceData> trace;
};

/** Per-LC-instance results. */
struct LcResult
{
    /** ROI request latencies (queueing + service). */
    LatencyRecorder latencies;

    /** ROI service times only (Fig 1b). */
    LatencyRecorder serviceTimes;

    /** Hits by requests-ago: [0]=same request .. [7], [8]=8+ ago. */
    std::array<std::uint64_t, 9> hitsByAge{};

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t instructions = 0;

    /** Cycle when the last ROI request completed. */
    Cycles roiEndCycle = 0;

    /** APKI over the whole run. */
    double apki() const;
};

/** Per-batch-app results. */
struct BatchResult
{
    std::uint64_t roiInstructions = 0;
    Cycles roiCycles = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double ipc() const;
};

/** One sampled allocation-trace row (Fig 4). */
struct AllocSample
{
    Cycles cycle;
    std::vector<std::uint64_t> targetLines; ///< per partition
};

/** The simulated chip-multiprocessor. */
class Cmp
{
  public:
    /**
     * @param cfg machine/policy configuration
     * @param lc LC app instances (cores 0..lc.size()-1)
     * @param batch batch apps (cores lc.size()..)
     * @param seed master seed; all randomness forks from it
     */
    Cmp(CmpConfig cfg, std::vector<LcAppSpec> lc,
        std::vector<BatchAppSpec> batch, std::uint64_t seed);
    ~Cmp();

    /** Run until every app completes its ROI. */
    void run();

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    const LcResult &lcResult(std::uint32_t i) const;
    const BatchResult &batchResult(std::uint32_t i) const;

    /** The shared scheme (fatal in private-LLC mode). */
    PartitionScheme &scheme();

    PartitionPolicy *policy() { return policy_.get(); }

    /** The main-memory timing model (never null). */
    const MemorySystem &memory() const { return *mem_; }

    const std::vector<AllocSample> &allocTrace() const { return trace_; }

    Cycles now() const { return now_; }

    /** Dump the simulated machine configuration (Table 2). */
    static void printConfig(const CmpConfig &cfg);

    /**
     * The exact RNG this constructor hands the app on core `core`
     * for master seed `seed`. Trace capture uses it to record, ahead
     * of time, precisely the stream a simulated core would generate —
     * the basis of the capture-then-replay fidelity guarantee
     * (workload/trace_capture.h).
     */
    static Rng appRng(std::uint64_t seed, std::uint32_t core);

  private:
    struct Core;

    void buildMemorySystem(std::uint64_t seed);
    void step();
    void serveLcEvent(std::uint32_t c);
    void serveBatchEvent(std::uint32_t c);
    void startRequest(std::uint32_t c);
    void finishRequest(std::uint32_t c);
    void pumpArrivals(Core &core);
    Cycles arrivalGap(Core &core, Cycles from);
    void doReconfigure();
    void doTrace();
    bool allDone() const;
    AccessOutcome accessLlc(std::uint32_t c, Addr addr);

    CmpConfig cfg_;
    Rng rng_;
    Cycles now_ = 0;
    Cycles nextReconfig_;
    Cycles nextTrace_;
    Cycles maxCycles_ = 0;

    /** Per-core next-event times with the earliest cached; serving
     *  a core re-finds it with one branch-free scan
     *  (sim/event_queue.h). */
    EventQueue events_;

    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<AppMonitor> monitors_;
    std::vector<std::unique_ptr<Umon>> umons_;
    std::vector<std::unique_ptr<MlpProfiler>> profilers_;

    /** Shared scheme, or one per core in private mode. */
    std::vector<std::unique_ptr<PartitionScheme>> schemes_;
    std::unique_ptr<PartitionPolicy> policy_;
    std::unique_ptr<MemorySystem> mem_;

    std::vector<LcResult> lcResults_;
    std::vector<BatchResult> batchResults_;
    std::vector<AllocSample> trace_;
    Cycles batchRoiStart_ = 0;
    bool batchRoiStarted_ = false;
};

} // namespace ubik
