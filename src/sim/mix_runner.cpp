#include "sim/mix_runner.h"

#include <cmath>

#include "common/log.h"
#include "sim/result_cache.h"

namespace ubik {

std::vector<SchemeUnderTest>
paperSchemes(double ubik_slack)
{
    return {
        {"LRU", SchemeKind::SharedLru, ArrayKind::Z4_52,
         PolicyKind::Lru, 0.0},
        {"UCP", SchemeKind::Vantage, ArrayKind::Z4_52, PolicyKind::Ucp,
         0.0},
        {"OnOff", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::OnOff, 0.0},
        {"StaticLC", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::StaticLc, 0.0},
        {"Ubik", SchemeKind::Vantage, ArrayKind::Z4_52,
         PolicyKind::Ubik, ubik_slack},
    };
}

void
SchemeUnderTest::applyTo(CmpConfig &cc) const
{
    cc.scheme = scheme;
    cc.array = array;
    cc.policy = policy;
    cc.ubik = ubik;
    cc.ubik.slack = slack;
    if (reconfigScale != 1.0) {
        // Under one cycle the simulator would reconfigure forever
        // without advancing time.
        const double interval =
            static_cast<double>(cc.reconfigInterval) * reconfigScale;
        if (!(interval >= 1 && interval < 0x1p63))
            fatal("scheme %s: reconfig_scale %g makes the reconfiguration "
                  "interval %g cycles (needs [1, 2^63))",
                  label.c_str(), reconfigScale, interval);
        cc.reconfigInterval = static_cast<Cycles>(interval);
    }
    cc.mem = mem;
    cc.memParams = memParams;
}

MixRunner::MixRunner(ExperimentConfig cfg, bool out_of_order)
    : cfg_(cfg), ooo_(out_of_order), ownCache_(ResultCache::open("")),
      cache_(ownCache_.get())
{
}

MixRunner::~MixRunner() = default;

std::string
MixRunner::lcKey(const LcAppParams &params, double load,
                 std::uint64_t seed) const
{
    return lcBaselineKey(cfg_, params, load, seed, ooo_);
}

std::string
MixRunner::batchKey(const BatchAppParams &params,
                    std::uint64_t seed) const
{
    return batchBaselineKey(cfg_, params, seed, ooo_);
}

LcBaseline
MixRunner::lcBaseline(const LcAppParams &params, double load,
                      std::uint64_t seed)
{
    // Bit-exact round trip, so a hit is indistinguishable from
    // recomputing.
    const std::string key = lcKey(params, load, seed);
    if (auto cached = cache_->loadLcBaseline(key))
        return *cached;

    // The calibration is deterministic in (params, load, seed), so two
    // racing threads store identical values.
    LcAppParams scaled = params.scaled(cfg_.scale);
    LcBaseline base;

    // 1. Closed-loop calibration: mean service time on a private LLC.
    {
        CmpConfig cc = cfg_.baseCmpConfig(ooo_);
        cc.privateLlc = true;
        LcAppSpec spec;
        spec.params = scaled;
        spec.meanInterarrival = 0; // closed loop
        spec.roiRequests = std::max<std::uint64_t>(
            50, cfg_.roiRequests / 2);
        spec.warmupRequests = cfg_.warmupRequests;
        spec.targetLines = cfg_.privateLines();
        Cmp cmp(cc, {spec}, {}, seed * 7919 + 1);
        cmp.run();
        base.meanServiceCycles = cmp.lcResult(0).serviceTimes.mean();
        ubik_assert(base.meanServiceCycles > 0);
    }

    base.meanInterarrival = base.meanServiceCycles / load;

    // 2. Open-loop baseline at the target rate: tail and deadline.
    {
        CmpConfig cc = cfg_.baseCmpConfig(ooo_);
        cc.privateLlc = true;
        LcAppSpec spec;
        spec.params = scaled;
        spec.meanInterarrival = base.meanInterarrival;
        spec.roiRequests = cfg_.roiRequests;
        spec.warmupRequests = cfg_.warmupRequests;
        spec.targetLines = cfg_.privateLines();
        Cmp cmp(cc, {spec}, {}, seed * 7919 + 2);
        cmp.run();
        const LatencyRecorder &lat = cmp.lcResult(0).latencies;
        base.meanLatency = lat.mean();
        base.tailMean = lat.tailMean(95.0);
        base.p95 = static_cast<Cycles>(lat.percentile(95.0));
    }

    cache_->storeLcBaseline(key, base);
    return base;
}

double
MixRunner::batchAloneIpc(const BatchAppParams &params,
                         std::uint64_t seed)
{
    const std::string key = batchKey(params, seed);
    if (auto cached = cache_->loadDouble(key))
        return *cached;

    CmpConfig cc = cfg_.baseCmpConfig(ooo_);
    cc.privateLlc = true;
    BatchAppSpec spec;
    spec.params = params.scaled(cfg_.scale);
    Cmp cmp(cc, {}, {spec}, seed * 104729 + 3);
    cmp.run();
    double ipc = cmp.batchResult(0).ipc();
    ubik_assert(ipc > 0);
    cache_->storeDouble(key, ipc);
    return ipc;
}

LatencyRecorder
MixRunner::runAlone(const LcAppParams &params, double load,
                    std::uint64_t seed, LatencyRecorder *service_times)
{
    const LcBaseline base = lcBaseline(params, load, seed);
    CmpConfig cc = cfg_.baseCmpConfig(ooo_);
    cc.privateLlc = true;
    LcAppSpec spec;
    spec.params = params.scaled(cfg_.scale);
    spec.meanInterarrival = base.meanInterarrival;
    spec.roiRequests = cfg_.roiRequests;
    spec.warmupRequests = cfg_.warmupRequests;
    spec.targetLines = cfg_.privateLines();
    Cmp cmp(cc, {spec}, {}, seed * 7919 + 11);
    cmp.run();
    if (service_times)
        service_times->merge(cmp.lcResult(0).serviceTimes);
    return cmp.lcResult(0).latencies;
}

MixRunResult
MixRunner::runMix(const MixSpec &spec, const SchemeUnderTest &sut,
                  std::uint64_t seed, MixTrace *trace_out)
{
    const std::size_t ntraces = spec.lc.traces.size();
    if (ntraces != 0 && ntraces != 1 && ntraces != 3)
        fatal("mix %s: lc.traces must hold 0, 1, or 3 traces (has %zu)",
              spec.name.c_str(), ntraces);
    const std::size_t nbatch = spec.batch.traces.size();
    if (nbatch != 0 && nbatch != 1 && nbatch != 3)
        fatal("mix %s: batch.traces must hold 0, 1, or 3 traces "
              "(has %zu)",
              spec.name.c_str(), nbatch);

    const LcBaseline base = lcBaseline(spec.lc.app, spec.lc.load, seed);
    LcAppParams scaled = spec.lc.app.scaled(cfg_.scale);

    CmpConfig cc = cfg_.baseCmpConfig(ooo_);
    sut.applyTo(cc);
    cc.traceAllocations = trace_out != nullptr;

    std::vector<LcAppSpec> lc(kMixLcInstances);
    for (std::size_t i = 0; i < lc.size(); i++) {
        LcAppSpec &s = lc[i];
        s.params = scaled;
        if (ntraces)
            s.trace = spec.lc.traces[ntraces == 1 ? 0 : i]->data();
        s.meanInterarrival = base.meanInterarrival;
        // The mix's load profile shapes the open-loop arrivals; the
        // baseline above stays constant-rate, so the deadline and
        // the tail reference are profile-independent.
        s.profile = spec.lc.profile;
        s.roiRequests = cfg_.roiRequests;
        s.warmupRequests = cfg_.warmupRequests;
        s.targetLines = cfg_.privateLines();
        s.deadline = base.p95;
    }
    std::vector<BatchAppSpec> batch(kMixBatchApps);
    for (std::size_t i = 0; i < batch.size(); i++) {
        batch[i].params = spec.batch.apps[i].scaled(cfg_.scale);
        if (nbatch)
            batch[i].trace =
                spec.batch.traces[nbatch == 1 ? 0 : i]->data();
    }

    Cmp cmp(cc, lc, batch, mixCmpSeed(seed));
    cmp.run();

    MixRunResult res;
    LatencyRecorder merged;
    for (std::uint32_t i = 0; i < kMixLcInstances; i++)
        merged.merge(cmp.lcResult(i).latencies);
    res.lcTailMean = merged.tailMean(95.0);
    res.tailDegradation =
        base.tailMean > 0 ? res.lcTailMean / base.tailMean : 0;
    res.meanDegradation =
        base.meanLatency > 0 ? merged.mean() / base.meanLatency : 0;

    double sum = 0;
    for (std::uint32_t i = 0; i < kMixBatchApps; i++) {
        double alone = batchAloneIpc(spec.batch.apps[i], seed);
        double ratio = cmp.batchResult(i).ipc() / alone;
        res.batchSpeedups.push_back(ratio);
        sum += ratio;
    }
    res.weightedSpeedup = sum / kMixBatchApps;

    if (auto *ubik = dynamic_cast<UbikPolicy *>(cmp.policy())) {
        res.ubikDeboosts = ubik->deboostInterrupts();
        res.ubikDeadlineDeboosts = ubik->deadlineDeboosts();
        res.ubikWatermarks = ubik->watermarkInterrupts();
    }
    if (trace_out) {
        trace_out->alloc = cmp.allocTrace();
        trace_out->latencies = std::move(merged);
    }
    return res;
}

} // namespace ubik
