#include "sim/cmp.h"

#include <algorithm>
#include <cmath>

#include "cache/vantage.h"
#include "cache/way_partitioning.h"
#include "cache/zcache_array.h"
#include "core/ubik_policy.h"
#include "policy/feedback_policy.h"
#include "policy/lru_policy.h"
#include "policy/onoff_policy.h"
#include "policy/static_lc_policy.h"
#include "policy/ucp_policy.h"
#include "common/log.h"

namespace ubik {

namespace {

/** UMON geometry (paper: 32 ways x 8 sets per core). */
constexpr std::uint32_t kUmonWays = 32;
constexpr std::uint32_t kUmonSets = 8;

} // namespace

SchemeKind
schemeKindFromNameOrAuto(const std::string &name, PolicyKind policy)
{
    if (name == "auto")
        return policy == PolicyKind::Lru ? SchemeKind::SharedLru
                                         : SchemeKind::Vantage;
    SchemeKind k;
    if (!tryEnumFromName(name, k))
        fatal("unknown scheme '%s' (auto, %s)", name.c_str(),
              enumNameList<SchemeKind>().c_str());
    return k;
}

double
LcResult::apki() const
{
    if (instructions == 0)
        return 0;
    return static_cast<double>(accesses) * 1000.0 /
           static_cast<double>(instructions);
}

double
BatchResult::ipc() const
{
    if (roiCycles == 0)
        return 0;
    return static_cast<double>(roiInstructions) /
           static_cast<double>(roiCycles);
}

/** Per-core dynamic state. */
struct Cmp::Core
{
    bool isLc = false;
    std::uint32_t idx = 0; ///< index into lc/batch result vectors

    std::unique_ptr<LcApp> lcApp;
    std::unique_ptr<BatchApp> batchApp;
    std::unique_ptr<CoreModel> model;
    LcAppSpec lcSpec;

    Cycles nextEvent = 0;

    // --- LC request state
    bool serving = false;
    bool finishing = false; ///< next event completes the request
    ReqId curReq = 0;       ///< requests started so far
    std::uint64_t accessesRemaining = 0;
    double instrPerAccess = 0;
    Cycles reqArrival = 0;
    Cycles reqStart = 0;

    // --- arrival process
    Rng rng{1};
    Cycles nextArrival = 0;
    std::deque<Cycles> queue; ///< arrival times of waiting requests

    /** Nominal run length, cycles: (warmup+ROI) requests at the
     *  nominal rate. The load profile's time base — span fractions
     *  scale with UBIK_SCALE / UBIK_REQUESTS automatically. */
    double profileSpan = 1.0;

    // --- progress
    std::uint64_t completed = 0;
    std::uint64_t intervalRequests = 0;
    bool roiDone = false;

    // --- batch progress (cumulative)
    double cumInstr = 0;
    std::uint64_t cumAccesses = 0;
    double instrAtRoiStart = 0;
};

Cmp::Cmp(CmpConfig cfg, std::vector<LcAppSpec> lc,
         std::vector<BatchAppSpec> batch, std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    ubik_assert(!lc.empty() || !batch.empty());
    nextReconfig_ = cfg_.reconfigInterval;
    nextTrace_ = cfg_.traceInterval;

    std::uint32_t ncores =
        static_cast<std::uint32_t>(lc.size() + batch.size());
    lcResults_.resize(lc.size());
    batchResults_.resize(batch.size());

    for (std::uint32_t c = 0; c < ncores; c++) {
        auto core = std::make_unique<Core>();
        core->rng = rng_.fork();
        if (c < lc.size()) {
            core->isLc = true;
            core->idx = c;
            core->lcSpec = lc[c];
            core->lcApp = std::make_unique<LcApp>(lc[c].params, c,
                                                  rng_.fork());
            if (lc[c].trace)
                core->lcApp->bindTrace(lc[c].trace);
            CoreTraits t;
            // Replayed traces dictate their own access intensity.
            t.apki = lc[c].trace ? lc[c].trace->apki()
                                 : lc[c].params.apki;
            t.baseIpc = lc[c].params.baseIpc;
            t.mlp = lc[c].params.mlp;
            core->model = std::make_unique<CoreModel>(cfg_.core, t);
            if (lc[c].meanInterarrival > 0) {
                lc[c].profile.validate("LcAppSpec load profile");
                core->profileSpan =
                    static_cast<double>(lc[c].warmupRequests +
                                        lc[c].roiRequests) *
                    lc[c].meanInterarrival;
                core->nextArrival = arrivalGap(*core, 0);
                core->nextEvent =
                    core->nextArrival + cfg_.coalesceCycles;
            } else {
                // Closed loop: first request at cycle 0.
                core->nextArrival = 0;
                core->nextEvent = 0;
            }
        } else {
            core->isLc = false;
            core->idx = static_cast<std::uint32_t>(c - lc.size());
            core->batchApp = std::make_unique<BatchApp>(
                batch[core->idx].params, c, rng_.fork());
            if (batch[core->idx].trace)
                core->batchApp->bindTrace(batch[core->idx].trace);
            CoreTraits t;
            t.apki = batch[core->idx].params.apki;
            t.baseIpc = batch[core->idx].params.baseIpc;
            t.mlp = batch[core->idx].params.mlp;
            core->model = std::make_unique<CoreModel>(cfg_.core, t);
            core->nextEvent = 0;
        }
        cores_.push_back(std::move(core));
    }

    buildMemorySystem(seed);

    // Auto cap: generous multiple of the expected ROI length.
    if (cfg_.maxCycles == 0) {
        double worst = 1e9;
        for (std::uint32_t c = 0; c < lc.size(); c++) {
            const auto &spec = lc[c];
            double span =
                static_cast<double>(spec.warmupRequests +
                                    spec.roiRequests) *
                std::max(spec.meanInterarrival,
                         spec.params.work.mean() / 1.0);
            worst = std::max(worst, span);
        }
        maxCycles_ = static_cast<Cycles>(worst * 50.0);
    } else {
        maxCycles_ = cfg_.maxCycles;
    }

    if (lc.empty())
        batchRoiStarted_ = false; // started after warmup accesses
}

Cmp::~Cmp() = default;

void
Cmp::buildMemorySystem(std::uint64_t seed)
{
    std::uint32_t ncores = numCores();
    auto make_array = [&](std::uint64_t lines,
                          std::uint64_t salt) -> std::unique_ptr<CacheArray> {
        switch (cfg_.array) {
          case ArrayKind::Z4_52:
            lines -= lines % 4;
            return std::make_unique<ZCacheArray>(lines, 4, 52, salt);
          case ArrayKind::SA16:
            lines -= lines % 16;
            return std::make_unique<SetAssocArray>(lines, 16, salt);
          case ArrayKind::SA64:
            lines -= lines % 64;
            return std::make_unique<SetAssocArray>(lines, 64, salt);
        }
        panic("bad ArrayKind");
    };

    if (cfg_.privateLlc) {
        // Per-core private LLCs: perfect isolation, no policy.
        for (std::uint32_t c = 0; c < ncores; c++)
            schemes_.push_back(std::make_unique<SharedLru>(
                make_array(cfg_.privateLinesPerCore, seed ^ (c + 1)),
                2));
    } else {
        std::uint32_t nparts = ncores + 1;
        switch (cfg_.scheme) {
          case SchemeKind::SharedLru:
            schemes_.push_back(std::make_unique<SharedLru>(
                make_array(cfg_.llcLines, seed), nparts));
            break;
          case SchemeKind::Vantage:
            schemes_.push_back(std::make_unique<Vantage>(
                make_array(cfg_.llcLines, seed), nparts));
            break;
          case SchemeKind::WayPart: {
            if (cfg_.array == ArrayKind::Z4_52)
                fatal("way-partitioning requires a set-associative "
                      "array (use SA16 or SA64)");
            std::uint32_t ways =
                cfg_.array == ArrayKind::SA16 ? 16 : 64;
            std::uint64_t lines = cfg_.llcLines - cfg_.llcLines % ways;
            schemes_.push_back(std::make_unique<WayPartitioning>(
                std::make_unique<SetAssocArray>(lines, ways, seed),
                nparts));
            break;
          }
        }
    }

    // Main memory: one shared model across all cores. It adds only
    // queueing delay; the base latency is kMemLatency (sim/core_model.h).
    mem_ = makeMemorySystem(cfg_.mem, cfg_.memParams, ncores);
    if (cfg_.mem == MemKind::Partitioned) {
        // LC cores bypass the regulator (strict priority); batch
        // cores are throttled to the half the LC cores leave.
        constexpr double kLcMemShare = 0.5;
        const double nbatch = static_cast<double>(batchResults_.size());
        auto *pm = static_cast<PartitionedMemory *>(mem_.get());
        for (std::uint32_t c = 0; c < ncores; c++) {
            if (cores_[c]->isLc)
                pm->setUnregulated(c);
            else
                pm->setShare(c, (1.0 - kLcMemShare) / nbatch);
        }
    }

    // Monitors: one UMON + MLP profiler per core, modeling the shared
    // LLC (or the private one in baseline mode).
    std::uint64_t modeled = cfg_.privateLlc ? cfg_.privateLinesPerCore
                                            : cfg_.llcLines;
    monitors_.resize(ncores);
    for (std::uint32_t c = 0; c < ncores; c++) {
        umons_.push_back(std::make_unique<Umon>(
            modeled, kUmonWays, kUmonSets, seed ^ (0xabcdull + c)));
        profilers_.push_back(std::make_unique<MlpProfiler>());
        AppMonitor &mon = monitors_[c];
        mon.umon = umons_[c].get();
        mon.mlp = profilers_[c].get();
        mon.latencyCritical = cores_[c]->isLc;
        mon.active = !cores_[c]->isLc; // LC cores start idle
        if (cores_[c]->isLc) {
            mon.targetLines = cores_[c]->lcSpec.targetLines;
            mon.deadline = cores_[c]->lcSpec.deadline;
        }
    }

    if (cfg_.privateLlc)
        return;

    PartitionScheme &s = *schemes_[0];
    switch (cfg_.policy) {
      case PolicyKind::Lru:
        policy_ = std::make_unique<LruPolicy>(s, monitors_);
        break;
      case PolicyKind::Ucp:
        policy_ = std::make_unique<UcpPolicy>(s, monitors_);
        break;
      case PolicyKind::StaticLc:
        policy_ = std::make_unique<StaticLcPolicy>(s, monitors_);
        break;
      case PolicyKind::OnOff:
        policy_ = std::make_unique<OnOffPolicy>(s, monitors_);
        break;
      case PolicyKind::Ubik:
        policy_ = std::make_unique<UbikPolicy>(s, monitors_, cfg_.ubik);
        break;
      case PolicyKind::Feedback:
        policy_ = std::make_unique<FeedbackPolicy>(s, monitors_);
        break;
    }
    // Initial conservative split so the first interval is sane:
    // StaticLC-like targets for LC apps, the rest split over batch.
    if (cfg_.policy != PolicyKind::Lru)
        policy_->reconfigure(0);
}

PartitionScheme &
Cmp::scheme()
{
    if (cfg_.privateLlc)
        fatal("scheme(): no shared scheme in private-LLC mode");
    return *schemes_[0];
}

const LcResult &
Cmp::lcResult(std::uint32_t i) const
{
    return lcResults_.at(i);
}

const BatchResult &
Cmp::batchResult(std::uint32_t i) const
{
    return batchResults_.at(i);
}

AccessOutcome
Cmp::accessLlc(std::uint32_t c, Addr addr)
{
    Core &core = *cores_[c];
    PartitionScheme &s =
        cfg_.privateLlc ? *schemes_[c] : *schemes_[0];
    AccessContext ctx;
    ctx.part = PartitionPolicy::partOf(c);
    ctx.app = c;
    ctx.reqId = core.isLc ? core.curReq : 0;
    AccessOutcome out = s.access(addr, ctx);

    UmonProbe probe = umons_[c]->access(addr);
    if (policy_ && core.isLc)
        policy_->onAccess(c, probe, !out.hit, now_);

    if (core.isLc) {
        LcResult &r = lcResults_[core.idx];
        r.accesses++;
        if (!out.hit) {
            r.misses++;
        } else if (cfg_.trackInertia) {
            if (out.hitPrevOwner == c) {
                std::uint64_t age =
                    core.curReq >= out.hitPrevReqId
                        ? core.curReq - out.hitPrevReqId
                        : 0;
                r.hitsByAge[std::min<std::uint64_t>(age, 8)]++;
            } else {
                r.hitsByAge[8]++; // another app's line: stale reuse
            }
        }
    } else {
        BatchResult &r = batchResults_[core.idx];
        r.accesses++;
        if (!out.hit)
            r.misses++;
        core.cumAccesses++;
    }
    return out;
}

/**
 * One interarrival gap starting at cycle `from`, following the
 * core's load profile. Exactly one exponential draw per call for
 * every profile kind, so profiles never perturb RNG stream order.
 * The nonhomogeneous process divides the nominal-rate gap by the
 * rate multiple at the gap's start (piecewise-constant rate over
 * one gap); a Churn departure window is skipped wholesale — no
 * arrivals can land inside it. The return value is the raw cast
 * (callers clamp where the legacy path clamped), keeping the
 * Constant branch bit-identical to the pre-profile arithmetic.
 */
Cycles
Cmp::arrivalGap(Core &core, Cycles from)
{
    double gap = core.rng.exponential(core.lcSpec.meanInterarrival);
    const LoadProfile &prof = core.lcSpec.profile;
    if (!prof.isConstant()) {
        double t = static_cast<double>(from) / core.profileSpan;
        double active = prof.nextActiveFrac(t);
        double skip = (active - t) * core.profileSpan;
        // Floor the rate away from zero (a diurnal trough at
        // amplitude 1): near-zero load means a huge finite gap, not
        // a division blow-up.
        double scale = std::max(prof.scaleAt(active), 1e-9);
        gap = skip + gap / scale;
    }
    return static_cast<Cycles>(gap);
}

void
Cmp::pumpArrivals(Core &core)
{
    if (core.lcSpec.meanInterarrival <= 0)
        return;
    while (core.nextArrival <= now_) {
        core.queue.push_back(core.nextArrival);
        core.nextArrival += std::max<Cycles>(
            1, arrivalGap(core, core.nextArrival));
    }
}

void
Cmp::startRequest(std::uint32_t c)
{
    Core &core = *cores_[c];
    ubik_assert(!core.queue.empty() || core.lcSpec.meanInterarrival <= 0);

    if (core.lcSpec.meanInterarrival <= 0) {
        core.reqArrival = now_;
    } else {
        core.reqArrival = core.queue.front();
        core.queue.pop_front();
    }
    core.reqStart = now_;
    core.curReq++;
    core.serving = true;

    double work = core.lcApp->startRequest(core.curReq);
    std::uint64_t n = core.lcApp->requestAccesses(work);
    LcResult &r = lcResults_[core.idx];
    r.instructions += static_cast<std::uint64_t>(work);

    if (n == 0) {
        // Pure-compute request: one event at completion.
        core.accessesRemaining = 0;
        core.finishing = true;
        Cycles cycles = core.model->compute(work);
        core.nextEvent = now_ + std::max<Cycles>(1, cycles);
    } else {
        core.accessesRemaining = n;
        core.instrPerAccess = work / static_cast<double>(n);
        core.finishing = false;
        core.nextEvent = now_; // first access immediately
    }
}

void
Cmp::finishRequest(std::uint32_t c)
{
    Core &core = *cores_[c];
    core.serving = false;
    core.finishing = false;

    Cycles latency = now_ - core.reqArrival;
    Cycles service = now_ - core.reqStart;
    core.completed++;
    core.intervalRequests++;

    LcResult &r = lcResults_[core.idx];
    const LcAppSpec &spec = core.lcSpec;
    bool in_roi = core.completed > spec.warmupRequests &&
                  core.completed <= spec.warmupRequests + spec.roiRequests;
    if (in_roi) {
        r.latencies.record(latency);
        r.serviceTimes.record(service);
        if (core.completed == spec.warmupRequests + spec.roiRequests) {
            core.roiDone = true;
            r.roiEndCycle = now_;
        }
    }
    if (policy_)
        policy_->onRequestComplete(c, latency);

    // Batch ROI window opens once every LC app is warm.
    if (!batchRoiStarted_) {
        bool all_warm = true;
        for (const auto &cr : cores_)
            if (cr->isLc && cr->completed < cr->lcSpec.warmupRequests)
                all_warm = false;
        if (all_warm) {
            batchRoiStarted_ = true;
            batchRoiStart_ = now_;
            for (const auto &cr : cores_)
                if (!cr->isLc)
                    cr->instrAtRoiStart = cr->cumInstr;
        }
    }

    pumpArrivals(core);
    if (!core.queue.empty() || spec.meanInterarrival <= 0) {
        startRequest(c);
        return;
    }
    // Queue drained: go idle until the next delivery.
    if (policy_) {
        monitors_[c].active = false;
        policy_->onIdle(c, now_);
    } else {
        monitors_[c].active = false;
    }
    core.nextEvent = core.nextArrival + cfg_.coalesceCycles;
}

void
Cmp::serveLcEvent(std::uint32_t c)
{
    Core &core = *cores_[c];

    if (!core.serving) {
        // Idle wake-up: the coalescing timeout expired.
        pumpArrivals(core);
        if (core.queue.empty() && core.lcSpec.meanInterarrival > 0) {
            // Spurious (arrival moved): sleep again.
            core.nextEvent = core.nextArrival + cfg_.coalesceCycles;
            return;
        }
        monitors_[c].active = true;
        if (policy_)
            policy_->onActive(c, now_);
        startRequest(c);
        return;
    }

    if (core.finishing) {
        finishRequest(c);
        return;
    }

    // One LLC access.
    Addr addr = core.lcApp->nextAddr();
    AccessOutcome out = accessLlc(c, addr);
    Cycles extra = out.hit ? 0
                           : core.model->exposedMemDelay(
                                 mem_->access(c, now_));
    Cycles cost =
        core.model->access(out.hit, core.instrPerAccess, extra);
    core.accessesRemaining--;
    core.nextEvent = now_ + std::max<Cycles>(1, cost);
    if (core.accessesRemaining == 0)
        core.finishing = true;
}

void
Cmp::serveBatchEvent(std::uint32_t c)
{
    Core &core = *cores_[c];
    Addr addr = core.batchApp->nextAddr();
    AccessOutcome out = accessLlc(c, addr);
    double ipa = 1000.0 / core.batchApp->params().apki;
    Cycles extra = out.hit ? 0
                           : core.model->exposedMemDelay(
                                 mem_->access(c, now_));
    Cycles cost = core.model->access(out.hit, ipa, extra);
    core.cumInstr += ipa;
    core.nextEvent = now_ + std::max<Cycles>(1, cost);
}

void
Cmp::doReconfigure()
{
    for (std::uint32_t c = 0; c < numCores(); c++) {
        Core &core = *cores_[c];
        IntervalCounters counters = core.model->takeInterval();
        monitors_[c].interval = counters;
        monitors_[c].intervalRequests = core.intervalRequests;
        core.intervalRequests = 0;
        profilers_[c]->update(counters);
    }
    if (policy_)
        policy_->reconfigure(now_);
    for (auto &u : umons_)
        u->resetCounters();
}

void
Cmp::doTrace()
{
    if (cfg_.privateLlc)
        return;
    AllocSample s;
    s.cycle = now_;
    PartitionScheme &sch = *schemes_[0];
    for (PartId p = 0; p < sch.numPartitions(); p++)
        s.targetLines.push_back(sch.targetSize(p));
    trace_.push_back(std::move(s));
}

bool
Cmp::allDone() const
{
    for (const auto &core : cores_) {
        if (core->isLc) {
            if (!core->roiDone)
                return false;
        } else if (!batchRoiStarted_) {
            return false;
        }
    }
    return true;
}

void
Cmp::run()
{
    // Pure-batch runs (baselines): ROI measured over a fixed access
    // count per app, after a warmup of 1/4 of that.
    bool batch_only = true;
    for (const auto &core : cores_)
        if (core->isLc)
            batch_only = false;

    std::uint64_t batch_roi_accesses = 0;
    if (batch_only) {
        // Scale ROI to the modeled cache so miss curves settle.
        std::uint64_t lines = cfg_.privateLlc
                                  ? cfg_.privateLinesPerCore
                                  : cfg_.llcLines;
        batch_roi_accesses = std::max<std::uint64_t>(200000, lines * 16);
    }

    // Queue of per-core next-event times. The two periodic timers
    // stay outside it (two comparisons per event); ties keep the
    // legacy precedence reconfig > trace > lowest core index.
    {
        std::vector<Cycles> times;
        times.reserve(cores_.size());
        for (const auto &core : cores_)
            times.push_back(core->nextEvent);
        events_.init(times);
    }

    while (true) {
        // Earliest event across cores and timers.
        Cycles best = nextReconfig_;
        int which = -1; // -1: reconfig, -2: trace, else core
        if (cfg_.traceAllocations && nextTrace_ < best) {
            best = nextTrace_;
            which = -2;
        }
        if (events_.topTime() < best) {
            best = events_.topTime();
            which = static_cast<int>(events_.topIndex());
        }
        now_ = best;

        if (now_ > maxCycles_) {
            warn("simulation exceeded max cycles (%llu); stopping",
                 static_cast<unsigned long long>(maxCycles_));
            break;
        }

        if (which == -1) {
            doReconfigure();
            nextReconfig_ += cfg_.reconfigInterval;
        } else if (which == -2) {
            doTrace();
            nextTrace_ += cfg_.traceInterval;
        } else {
            std::uint32_t c = static_cast<std::uint32_t>(which);
            if (cores_[c]->isLc)
                serveLcEvent(c);
            else
                serveBatchEvent(c);
            // Serving an event only reschedules the served core.
            events_.update(c, cores_[c]->nextEvent);
        }

        if (batch_only) {
            bool done = true;
            for (const auto &core : cores_) {
                if (!batchRoiStarted_ &&
                    core->cumAccesses >= batch_roi_accesses / 4) {
                    batchRoiStarted_ = true;
                    batchRoiStart_ = now_;
                    for (const auto &cr : cores_)
                        if (!cr->isLc)
                            cr->instrAtRoiStart = cr->cumInstr;
                }
                if (core->cumAccesses <
                    batch_roi_accesses / 4 + batch_roi_accesses)
                    done = false;
            }
            if (batchRoiStarted_ && done)
                break;
        } else if (allDone()) {
            break;
        }
    }

    // Close the batch ROI window.
    for (std::uint32_t c = 0; c < numCores(); c++) {
        Core &core = *cores_[c];
        if (core.isLc)
            continue;
        BatchResult &r = batchResults_[core.idx];
        Cycles start = batchRoiStarted_ ? batchRoiStart_ : 0;
        r.roiCycles = now_ > start ? now_ - start : 1;
        double instr = core.cumInstr - core.instrAtRoiStart;
        r.roiInstructions = static_cast<std::uint64_t>(instr);
    }
}

Rng
Cmp::appRng(std::uint64_t seed, std::uint32_t core)
{
    // Mirrors the constructor's fork order exactly: per core, one
    // fork for the arrival-process RNG, then one for the app.
    Rng master(seed);
    for (std::uint32_t c = 0; c < core; c++) {
        master.fork();
        master.fork();
    }
    master.fork();
    return master.fork();
}

} // namespace ubik
