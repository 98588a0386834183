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
    cc.slack = slack;
    cc.ubik = ubik;
    if (reconfigScale != 1.0)
        cc.reconfigInterval = static_cast<Cycles>(
            static_cast<double>(cc.reconfigInterval) * reconfigScale);
    cc.mem = mem;
    cc.memParams = memParams;
    if (mem == MemKind::Partitioned) {
        // LC instances bypass the regulator (strict priority); batch
        // apps are throttled to the unreserved remainder.
        cc.memShares.assign(6, 0.0);
        for (int i = 3; i < 6; i++)
            cc.memShares[i] = (1.0 - lcMemShare) / 3.0;
    }
}

MixRunner::MixRunner(ExperimentConfig cfg, bool out_of_order)
    : cfg_(cfg), ooo_(out_of_order)
{
}

std::string
MixRunner::lcKey(const LcAppParams &params, double load,
                 std::uint64_t seed) const
{
    return params.name + "/" + std::to_string(load) + "/" +
           std::to_string(seed) + (ooo_ ? "/ooo" : "/io");
}

std::string
MixRunner::batchKey(const BatchAppParams &params,
                    std::uint64_t seed) const
{
    return params.name + "/" + std::to_string(seed) +
           (ooo_ ? "/ooo" : "/io");
}

const LcBaseline &
MixRunner::lcBaseline(const LcAppParams &params, double load,
                      std::uint64_t seed)
{
    std::string key = lcKey(params, load, seed);
    {
        std::lock_guard<std::mutex> lock(cacheMu_);
        auto it = lcCache_.find(key);
        if (it != lcCache_.end())
            return it->second;
    }

    // Persistent store next (bit-exact round trip, so a hit is
    // indistinguishable from recomputing).
    std::string pkey;
    if (cache_) {
        pkey = lcBaselineKey(cfg_, params, load, seed, ooo_);
        if (auto cached = cache_->loadLcBaseline(pkey)) {
            std::lock_guard<std::mutex> lock(cacheMu_);
            return lcCache_.emplace(key, *cached).first->second;
        }
    }

    // Compute outside the lock: the calibration is deterministic in
    // (params, load, seed), so two racing threads produce identical
    // values and whichever emplace wins is correct for both.
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

    if (cache_)
        cache_->storeLcBaseline(pkey, base);

    std::lock_guard<std::mutex> lock(cacheMu_);
    auto [ins, ok] = lcCache_.emplace(key, base);
    (void)ok;
    return ins->second;
}

double
MixRunner::batchAloneIpc(const BatchAppParams &params,
                         std::uint64_t seed)
{
    std::string key = batchKey(params, seed);
    {
        std::lock_guard<std::mutex> lock(cacheMu_);
        auto it = batchCache_.find(key);
        if (it != batchCache_.end())
            return it->second;
    }

    std::string pkey;
    if (cache_) {
        pkey = batchBaselineKey(cfg_, params, seed, ooo_);
        if (auto cached = cache_->loadBatchIpc(pkey)) {
            std::lock_guard<std::mutex> lock(cacheMu_);
            batchCache_.emplace(key, *cached);
            return *cached;
        }
    }

    CmpConfig cc = cfg_.baseCmpConfig(ooo_);
    cc.privateLlc = true;
    BatchAppSpec spec;
    spec.params = params.scaled(cfg_.scale);
    Cmp cmp(cc, {}, {spec}, seed * 104729 + 3);
    cmp.run();
    double ipc = cmp.batchResult(0).ipc();
    ubik_assert(ipc > 0);
    if (cache_)
        cache_->storeBatchIpc(pkey, ipc);
    std::lock_guard<std::mutex> lock(cacheMu_);
    batchCache_.emplace(key, ipc);
    return ipc;
}

LatencyRecorder
MixRunner::runAlone(const LcAppParams &params, double load,
                    std::uint64_t seed, LatencyRecorder *service_times)
{
    const LcBaseline &base = lcBaseline(params, load, seed);
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

    const LcBaseline &base = lcBaseline(spec.lc.app, spec.lc.load, seed);
    LcAppParams scaled = spec.lc.app.scaled(cfg_.scale);

    CmpConfig cc = cfg_.baseCmpConfig(ooo_);
    sut.applyTo(cc);
    cc.traceAllocations = trace_out != nullptr;

    std::vector<LcAppSpec> lc(3);
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
    std::vector<BatchAppSpec> batch(3);
    for (std::size_t i = 0; i < 3; i++) {
        batch[i].params = spec.batch.apps[i].scaled(cfg_.scale);
        if (nbatch)
            batch[i].trace =
                spec.batch.traces[nbatch == 1 ? 0 : i]->data();
    }

    Cmp cmp(cc, lc, batch, mixCmpSeed(seed));
    cmp.run();

    MixRunResult res;
    LatencyRecorder merged;
    for (std::uint32_t i = 0; i < 3; i++)
        merged.merge(cmp.lcResult(i).latencies);
    res.lcTailMean = merged.tailMean(95.0);
    res.tailDegradation =
        base.tailMean > 0 ? res.lcTailMean / base.tailMean : 0;
    res.meanDegradation =
        base.meanLatency > 0 ? merged.mean() / base.meanLatency : 0;

    double sum = 0;
    for (std::uint32_t i = 0; i < 3; i++) {
        double alone = batchAloneIpc(spec.batch.apps[i], seed);
        double ratio = cmp.batchResult(i).ipc() / alone;
        res.batchSpeedups.push_back(ratio);
        sum += ratio;
    }
    res.weightedSpeedup = sum / 3.0;

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
