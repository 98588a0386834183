/**
 * @file
 * perfbench_layers: the in-process half of the repository benchmark
 * (perfbench/run.py drives it; perfbench/README.md explains the
 * metrics). It calls each module's public functions from this file
 * and records a span around every call, so the per-layer numbers come
 * from the benchmark's own code and the program stays untouched.
 *
 *   # The engine's cold sweep of a spec, a traced copy of it, then
 *   # the program's own path over the filled cache
 *   perfbench_layers sweep --spec fig9.json --cache-dir c --jobs 3 \
 *       --results r.json --out m.json
 *
 *   # Seeded probes of the simulator layers and the serving path
 *   perfbench_layers probe --dir d --traced-spec t.json --jobs 2 \
 *       --out m.json
 *
 * Both modes write a flat {"metric": value} object to --out and the
 * raw spans to <out>.spans.jsonl. Scale comes from the UBIK_*
 * environment, as for ubik_run. Both exit 3, after writing their
 * metrics, when a check fails: in sweep mode a result that differs
 * from the engine's; in probe mode a cache, UMON or trace hash that
 * differs from the one perf_hotpath / perf_trace committed
 * (BENCH_hotpath.json, BENCH_trace.json), or a serve response that is
 * not ok:true.
 */

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/scheme.h"
#include "cache/set_assoc_array.h"
#include "cache/vantage.h"
#include "cache/way_partitioning.h"
#include "cache/zcache_array.h"
#include "common/cli.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/advisor.h"
#include "fleet/fleet_model.h"
#include "fleet/serve.h"
#include "mon/umon.h"
#include "queueing/queue_sim.h"
#include "report/report.h"
#include "sim/cmp.h"
#include "sim/parallel_sweep.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "trace/access_trace.h"
#include "trace/trace_analyzer.h"
#include "trace/trace_reader.h"
#include "workload/trace_app.h"
#include "workload/trace_capture.h"

namespace {

using namespace ubik;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/** Small dense index per thread, so spans can be grouped by worker. */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned idx = next++;
    return idx;
}

/** In-memory span store; written out once, when the mode ends. */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = top level
        std::string name;
        double start = 0; ///< seconds since the tracer's epoch
        double end = 0;
        unsigned thread = 0;
        std::uint64_t ref = 0; ///< job or request id
    };

    std::uint64_t newId() { return nextId_++; }

    void record(Span s)
    {
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back(std::move(s));
    }

    double since(Clock::time_point t) const
    {
        return secondsBetween(epoch_, t);
    }

    std::vector<Span> spans() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return spans_;
    }

    /** Durations of every span called `name`, in record order. */
    std::vector<double> durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans())
            if (s.name == name)
                out.push_back(s.end - s.start);
        return out;
    }

    void write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot write %s", path.c_str());
        for (const Span &s : spans())
            std::fprintf(f,
                         "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                         ",\"name\":\"%s\",\"start\":%.9f,"
                         "\"end\":%.9f,\"thread\":%u,\"ref\":%" PRIu64
                         "}\n",
                         s.id, s.parent, s.name.c_str(), s.start, s.end,
                         s.thread, s.ref);
        std::fclose(f);
    }

  private:
    Clock::time_point epoch_ = Clock::now();
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span: opened on construction, recorded on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t parent = 0,
          std::uint64_t ref = 0)
        : t_(t), name_(name), parent_(parent), ref_(ref),
          id_(t.newId()), t0_(Clock::now())
    {
    }

    ~Scope()
    {
        Tracer::Span s;
        s.id = id_;
        s.parent = parent_;
        s.name = name_;
        s.start = t_.since(t0_);
        s.end = t_.since(Clock::now());
        s.thread = threadIndex();
        s.ref = ref_;
        t_.record(std::move(s));
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    const char *name_;
    std::uint64_t parent_;
    std::uint64_t ref_;
    std::uint64_t id_;
    Clock::time_point t0_;
};

using Metrics = std::map<std::string, double>;

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median wall-clock seconds of `reps` calls of `fn`. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; i++) {
        auto t0 = Clock::now();
        fn();
        t.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(t);
}

void
writeMetrics(const Metrics &m, const Tracer &tr, const std::string &out)
{
    Json j = Json::object();
    for (const auto &kv : m)
        j.set(kv.first, kv.second);
    std::ofstream f(out);
    f << j.dump(/*pretty=*/true) << "\n";
    if (!f)
        fatal("cannot write %s", out.c_str());
    tr.write(out + ".spans.jsonl");
}

ScenarioSpec
loadSpec(const std::string &path)
{
    Json j;
    std::string err;
    if (!Json::parseFile(path, j, err))
        fatal("--spec %s: %s", path.c_str(), err.c_str());
    return scenarioFromJson(j);
}

const ScenarioSpec &
registered(const char *name)
{
    const ScenarioSpec *s = ScenarioRegistry::instance().find(name);
    if (!s)
        fatal("scenario '%s' is not registered", name);
    return *s;
}

// ---------------------------------------------------------------------------
// sweep mode: the program's engine on a cold cache, a traced copy of
// its steps, then the program's own path over the filled cache
// ---------------------------------------------------------------------------

/** CPU seconds of this process, every thread included. */
double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool
sameResult(const MixRunResult &a, const MixRunResult &b)
{
    return a.lcTailMean == b.lcTailMean &&
           a.tailDegradation == b.tailDegradation &&
           a.weightedSpeedup == b.weightedSpeedup;
}

int
sweepMode(const std::string &spec_path, const std::string &cache_dir,
          unsigned jobs, const std::string &results_path,
          const std::string &out)
{
    Tracer tr;
    Metrics m;
    const auto t_begin = Clock::now();

    ExperimentConfig cfg0 = ExperimentConfig::fromEnv();
    cfg0.jobs = jobs;
    const ScenarioSpec spec = loadSpec(spec_path);
    if (spec.fleet.servers)
        fatal("sweep mode drives sweep-only specs (no fleet stage)");
    const ExperimentConfig cfg = scenarioConfig(spec, cfg0);
    const std::string engine_dir = cache_dir + "/engine";
    const std::string copy_dir = cache_dir + "/traced";

    std::vector<MixSpec> mixes;
    {
        Scope s(tr, "scenario.build_mixes");
        mixes = buildScenarioMixes(spec, cfg);
    }
    const std::vector<SweepJob> jobsv =
        buildSweepJobs(spec.schemes, mixes, cfg.seeds);
    std::uint64_t degraded = 0;

    // 1. The program's engine, untraced: ParallelSweep::run on a cold
    //    cache, set up the way runSchemeSweep sets it up. It gives the
    //    L4 figures: the wall-clock, the process CPU over it, and the
    //    moment each job was filled.
    std::vector<MixRunResult> results;
    std::vector<double> filled_at;
    double engine_wall = 0, engine_cpu = 0;
    unsigned workers = 0;
    std::uint64_t engine_stores = 0;
    {
        std::unique_ptr<ResultCache> cache;
        {
            Scope s(tr, "result_cache.open");
            cache = ResultCache::open(engine_dir);
        }
        MixRunner runner(cfg, spec.ooo);
        runner.attachCache(cache.get());
        ParallelSweep engine(runner, cfg.jobs);
        engine.attachCache(cache.get());
        workers = engine.workers();
        Scope s(tr, "sweep.run");
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        results = engine.run(jobsv, [&](const SweepProgress &p) {
            if (p.done > p.hits)
                filled_at.push_back(p.elapsedSec);
        });
        engine_wall = secondsBetween(t0, Clock::now());
        engine_cpu = processCpuSeconds() - cpu0;
        engine_stores = cache->stats().stores;
        degraded += cache->stats().degraded();
    }

    // 2. The same cold sweep through a copy of the engine's steps
    //    (JobPoolExecutor::execute) with a span around every call, for
    //    the per-call figures the engine does not expose. Its results
    //    must equal the engine's.
    std::vector<std::string> keys(jobsv.size());
    std::size_t mismatches = 0;
    double copy_wall = 0;
    {
        std::unique_ptr<ResultCache> cache;
        {
            Scope s(tr, "result_cache.open");
            cache = ResultCache::open(copy_dir);
        }
        MixRunner runner(cfg, spec.ooo);
        runner.attachCache(cache.get());
        JobPool pool(cfg.jobs);
        std::vector<MixRunResult> copy(jobsv.size());
        std::vector<std::size_t> todo;
        const auto t0 = Clock::now();
        {
            Scope phase(tr, "sweep.lookup");
            for (std::size_t i = 0; i < jobsv.size(); i++) {
                keys[i] = mixResultKey(cfg, jobsv[i].mix, jobsv[i].sut,
                                       jobsv[i].seed, spec.ooo);
                Scope s(tr, "result_cache.lookup", phase.id(), i);
                if (auto hit = cache->loadMix(keys[i]))
                    copy[i] = std::move(*hit);
                else
                    todo.push_back(i);
            }
        }
        {
            // Baselines, deduplicated by the keys MixRunner caches
            // them under, LC ones first (prewarmSweepBaselines).
            std::map<std::string, const SweepJob *> lc;
            std::map<std::string, std::pair<const BatchAppParams *,
                                            std::uint64_t>>
                batch;
            for (std::size_t i : todo) {
                const SweepJob &j = jobsv[i];
                lc.emplace(runner.lcKey(j.mix.lc.app, j.mix.lc.load, j.seed),
                           &j);
                for (const auto &b : j.mix.batch.apps)
                    batch.emplace(runner.batchKey(b, j.seed),
                                  std::make_pair(&b, j.seed));
            }
            std::vector<const SweepJob *> lcv;
            for (const auto &kv : lc)
                lcv.push_back(kv.second);
            std::vector<std::pair<const BatchAppParams *, std::uint64_t>>
                bav;
            for (const auto &kv : batch)
                bav.push_back(kv.second);
            Scope phase(tr, "sweep.prewarm");
            pool.run(lcv.size() + bav.size(), [&](std::size_t k) {
                if (k < lcv.size()) {
                    const SweepJob &j = *lcv[k];
                    Scope s(tr, "mix.lc_baseline", phase.id(), k);
                    runner.lcBaseline(j.mix.lc.app, j.mix.lc.load, j.seed);
                } else {
                    const auto &b = bav[k - lcv.size()];
                    Scope s(tr, "mix.batch_baseline", phase.id(), k);
                    runner.batchAloneIpc(*b.first, b.second);
                }
            });
        }
        {
            Scope phase(tr, "sweep.mixes");
            pool.run(todo.size(), [&](std::size_t k) {
                std::size_t i = todo[k];
                Scope job(tr, "sweep.job", phase.id(), i);
                {
                    Scope s(tr, "mix.run", job.id(), i);
                    copy[i] = runner.runMix(jobsv[i].mix, jobsv[i].sut,
                                            jobsv[i].seed);
                }
                Scope s(tr, "result_cache.store", job.id(), i);
                cache->storeMix(keys[i], copy[i]);
            });
        }
        copy_wall = secondsBetween(t0, Clock::now());
        for (std::size_t i = 0; i < jobsv.size(); i++)
            mismatches += !sameResult(copy[i], results[i]);
        degraded += cache->stats().degraded();
    }

    // 3. Warm: reopen the engine's filled cache (the serving side's
    //    view) and look every job up, then run the program's own path
    //    over it, runScenario (every job a hit) and
    //    scenarioResultsJson, whose document must be the untraced
    //    run's.
    std::unique_ptr<ResultCache> warm;
    {
        Scope s(tr, "result_cache.reopen");
        warm = ResultCache::open(engine_dir);
    }
    {
        Scope phase(tr, "sweep.warm_lookup");
        for (std::size_t i = 0; i < jobsv.size(); i++) {
            Scope s(tr, "result_cache.load", phase.id(), i);
            auto hit = warm->loadMix(keys[i]);
            mismatches += !hit || !sameResult(*hit, results[i]);
        }
    }
    ScenarioResult res;
    {
        Scope s(tr, "sweep.warm");
        res = runScenario(spec, cfg0, warm.get());
    }
    {
        Scope s(tr, "report.results_json");
        writeJsonFile(scenarioResultsJson(spec, res, /*accounting=*/false),
                      results_path);
    }
    const CacheStats warm_stats = warm->stats();
    degraded += warm_stats.degraded();
    const double wall = secondsBetween(t_begin, Clock::now());

    // Tail idle of the mix phase: with W workers, the first one runs
    // out of work when the (N-W+1)-th of the N jobs is filled.
    double tail_idle = 0;
    const std::size_t n = filled_at.size();
    if (n > 0) {
        std::size_t w = std::min<std::size_t>(workers, n);
        tail_idle = engine_wall - filled_at[n - w];
    }
    std::vector<double> runs = tr.durations("mix.run");
    double top = 0;
    for (const auto &s : tr.spans())
        if (s.parent == 0)
            top += s.end - s.start;

    m["scenario.build_mixes_us"] =
        sum(tr.durations("scenario.build_mixes")) * 1e6;
    m["mix.run_s"] = sum(runs);
    m["mix.job_max_s"] =
        runs.empty() ? 0 : *std::max_element(runs.begin(), runs.end());
    m["mix.job_p50_s"] = median(runs);
    m["mix.lc_baseline_s"] = sum(tr.durations("mix.lc_baseline"));
    m["mix.batch_baseline_s"] = sum(tr.durations("mix.batch_baseline"));
    m["sweep.wall_s"] = engine_wall;
    m["sweep.efficiency"] =
        engine_wall > 0 ? engine_cpu / (workers * engine_wall) : 0;
    m["sweep.tail_idle_s"] = tail_idle;
    m["sweep.jobs"] = static_cast<double>(jobsv.size());
    m["sweep.computed"] = static_cast<double>(n);
    m["sweep.warm_s"] = sum(tr.durations("sweep.warm"));
    m["result_cache.store_us"] =
        mean(tr.durations("result_cache.store")) * 1e6;
    m["result_cache.stores"] = static_cast<double>(engine_stores);
    m["result_cache.open_ms"] =
        sum(tr.durations("result_cache.reopen")) * 1e3;
    m["result_cache.load_us"] =
        mean(tr.durations("result_cache.load")) * 1e6;
    m["result_cache.hits"] = static_cast<double>(warm_stats.hits);
    m["result_cache.misses"] = static_cast<double>(warm_stats.misses);
    m["result_cache.degraded"] = static_cast<double>(degraded);
    m["report.results_json_us"] =
        sum(tr.durations("report.results_json")) * 1e6;
    m["bench.trace_overhead"] =
        engine_wall > 0 ? copy_wall / engine_wall - 1.0 : 0;
    m["bench.span_coverage"] = wall > 0 ? top / wall : 0;
    writeMetrics(m, tr, out);
    std::fprintf(stderr,
                 "  engine sweep %.2f s, traced copy %.2f s\n",
                 engine_wall, copy_wall);
    if (mismatches) {
        std::fprintf(stderr,
                     "perfbench_layers: %zu results of the traced copy "
                     "or the warm cache differ from the engine's\n",
                     mismatches);
        return 3;
    }
    return 0;
}

// ---------------------------------------------------------------------------
// probe mode: seeded inputs into each layer's public entry points
// ---------------------------------------------------------------------------

constexpr std::uint32_t kApps = 6;

/** Hashes perf_hotpath and perf_trace committed at their defaults
 *  (BENCH_hotpath.json, BENCH_trace.json): the probes below must
 *  reproduce them bit for bit. */
const std::map<std::string, std::uint64_t> kPinnedStateHash = {
    {"lru-z4-52", 0xdb56b406f65429b5ull},
    {"vantage-z4-52", 0xac2140a3e63e983eull},
    {"vantage-sa16", 0x0937f97fb3a3b46full},
    {"vantage-sa64", 0x956ee2b1ccdf1f0eull},
    {"waypart-sa16", 0x9196507fd2c5ddeaull},
    {"umon-32x8", 0x9750b9b24eb291a5ull},
};
constexpr std::uint64_t kPinnedTraceContentHash = 0x269ee87b18549ea1ull;
constexpr std::uint64_t kPinnedTraceFootprint = 0x2c00;

/** perf_hotpath's address stream: apps round-robin, each uniform over
 *  a working set of 0.5x..3x its fair share. */
std::vector<Addr>
hotpathStream(std::uint64_t n, std::uint64_t llc_lines,
              std::uint64_t seed)
{
    const double wsFactor[kApps] = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
    std::uint64_t share = llc_lines / kApps;
    Rng rng(seed);
    std::vector<Addr> stream;
    stream.reserve(n);
    for (std::uint64_t i = 0; i < n; i++) {
        std::uint32_t a = static_cast<std::uint32_t>(i % kApps);
        std::uint64_t ws = std::max<std::uint64_t>(
            64, static_cast<std::uint64_t>(
                    wsFactor[a] * static_cast<double>(share)));
        Addr base = static_cast<Addr>(a + 1) << 40;
        stream.push_back(base + rng.uniformInt(ws));
    }
    return stream;
}

std::unique_ptr<PartitionScheme>
buildScheme(SchemeKind scheme, std::uint32_t ways, std::uint64_t lines,
            std::uint64_t salt)
{
    std::uint32_t nparts = kApps + 1;
    if (scheme == SchemeKind::WayPart)
        return std::make_unique<WayPartitioning>(
            std::make_unique<SetAssocArray>(lines - lines % ways, ways,
                                            salt),
            nparts);
    std::unique_ptr<CacheArray> array;
    if (ways == 0)
        array = std::make_unique<ZCacheArray>(lines - lines % 4, 4, 52,
                                              salt);
    else
        array = std::make_unique<SetAssocArray>(lines - lines % ways,
                                                ways, salt);
    if (scheme == SchemeKind::SharedLru)
        return std::make_unique<SharedLru>(std::move(array), nparts);
    return std::make_unique<Vantage>(std::move(array), nparts);
}

/** perf_hotpath's post-run digest: resident lines + counters. */
std::uint64_t
schemeStateHash(const PartitionScheme &s)
{
    std::uint64_t h = kFnvOffsetBasis;
    const CacheArray &a = s.array();
    for (std::uint64_t slot = 0; slot < a.numLines(); slot++) {
        if (!a.validAt(slot))
            continue;
        const LineMeta &m = a.meta(slot);
        h = fnv1a64(h, slot);
        h = fnv1a64(h, a.addrAt(slot));
        h = fnv1a64(h, m.part);
        h = fnv1a64(h, m.owner);
        h = fnv1a64(h, m.lastTouch);
        h = fnv1a64(h, m.lastReqId);
    }
    for (PartId p = 0; p < s.numPartitions(); p++) {
        h = fnv1a64(h, s.accesses(p));
        h = fnv1a64(h, s.misses(p));
        h = fnv1a64(h, s.actualSize(p));
    }
    h = fnv1a64(h, s.forcedEvictions());
    return h;
}

struct ParityLog
{
    int failures = 0;

    void check(const std::string &what, std::uint64_t got,
               std::uint64_t want)
    {
        bool ok = got == want;
        std::fprintf(stderr,
                     "  [parity] %-22s %016" PRIx64 " %s\n", what.c_str(),
                     got, ok ? "ok" : "MISMATCH");
        if (!ok) {
            std::fprintf(stderr, "  [parity] %s: expected %016" PRIx64
                                 "\n",
                         what.c_str(), want);
            failures++;
        }
    }
};

/** L0: scheme access on the perf_hotpath stream and parameters. */
void
probeCache(Tracer &tr, Metrics &m, ParityLog &parity)
{
    const std::uint64_t n = 2000000, lines = 196608, seed = 1;
    const std::uint64_t warm_n = std::min<std::uint64_t>(2 * lines, n * 4);
    std::vector<Addr> stream = hotpathStream(warm_n + n, lines, seed);
    struct Config
    {
        const char *label;
        SchemeKind scheme;
        std::uint32_t ways; ///< 0 = Z4/52 zcache
    };
    const Config configs[] = {
        {"lru-z4-52", SchemeKind::SharedLru, 0},
        {"vantage-z4-52", SchemeKind::Vantage, 0},
        {"vantage-sa16", SchemeKind::Vantage, 16},
        {"vantage-sa64", SchemeKind::Vantage, 64},
        {"waypart-sa16", SchemeKind::WayPart, 16},
        {"waypart-sa64", SchemeKind::WayPart, 64},
    };
    for (const Config &c : configs) {
        auto s = buildScheme(c.scheme, c.ways, lines, /*salt=*/12345);
        std::uint64_t share = s->array().numLines() / kApps;
        for (std::uint32_t a = 0; a < kApps; a++)
            s->setTargetSize(a + 1, share);
        AccessContext ctx;
        auto drive = [&](std::size_t from, std::size_t to) {
            std::uint64_t hits = 0;
            for (std::size_t i = from; i < to; i++) {
                std::size_t k = i - from;
                std::uint32_t a = static_cast<std::uint32_t>(k % kApps);
                ctx.part = a + 1;
                ctx.app = a;
                ctx.reqId = static_cast<ReqId>(k / kApps);
                hits += s->access(stream[i], ctx).hit ? 1 : 0;
            }
            return hits;
        };
        drive(0, warm_n);
        std::uint64_t hits;
        auto t0 = Clock::now();
        {
            Scope sp(tr, "cache.access");
            hits = drive(warm_n, warm_n + n);
        }
        double sec = secondsBetween(t0, Clock::now());
        std::string key = std::string("cache.") + c.label;
        m[key + ".ns_per_access"] = sec * 1e9 / static_cast<double>(n);
        m[key + ".hit_rate"] =
            static_cast<double>(hits) / static_cast<double>(n);
        auto pinned = kPinnedStateHash.find(c.label);
        if (pinned != kPinnedStateHash.end())
            parity.check(key, schemeStateHash(*s), pinned->second);
    }

    // L1: the UMON front-end on the same stream (perf_hotpath's
    // umon/32x8 row).
    Umon umon(lines, 32, 8, /*salt=*/0xabcdu);
    std::uint64_t sampled = 0;
    for (std::size_t i = 0; i < warm_n; i++)
        sampled += umon.access(stream[i]).sampled ? 1 : 0;
    auto t0 = Clock::now();
    {
        Scope sp(tr, "mon.access");
        for (std::size_t i = warm_n; i < warm_n + n; i++)
            sampled += umon.access(stream[i]).sampled ? 1 : 0;
    }
    double sec = secondsBetween(t0, Clock::now());
    m["mon.umon-32x8.ns_per_access"] = sec * 1e9 / static_cast<double>(n);
    std::uint64_t h = fnv1a64(kFnvOffsetBasis, sampled);
    MissCurve curve = umon.missCurve();
    for (std::size_t i = 0; i < curve.points(); i++) {
        double v = curve.values()[i];
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h = fnv1a64(h, bits);
    }
    parity.check("mon.umon-32x8", h, kPinnedStateHash.at("umon-32x8"));
}

/** "Vantage-Z4/52" -> "vantage-z4-52". */
std::string
metricLabel(const std::string &label)
{
    std::string out;
    for (char c : label)
        out += c == '/' ? '-'
                        : static_cast<char>(std::tolower(
                              static_cast<unsigned char>(c)));
    return out;
}

/** The Cmp probe runs at the sweeps' pinned machine scale and run
 *  length (SWEEP_ENV in perfbench/run.py). */
constexpr double kCmpScale = 32;
constexpr std::uint64_t kCmpRoiRequests = 60;
constexpr std::uint64_t kCmpWarmupRequests = 15;

/**
 * L2: Cmp::run, event loop + scheme + policy, for every fig9 and
 * fig13 scheme on one fixed mix. Built the way MixRunner::runMix
 * builds it; baselines are computed first and are not timed.
 */
void
probeCmp(Tracer &tr, Metrics &m)
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.scale = kCmpScale;
    cfg.roiRequests = kCmpRoiRequests;
    cfg.warmupRequests = kCmpWarmupRequests;
    cfg.cacheDir.clear();
    MixRunner runner(cfg, /*out_of_order=*/true);
    const MixSpec mix = buildMixes(2, /*seed=*/1, 1).front();
    const std::uint64_t seed = 1;
    const LcBaseline &base =
        runner.lcBaseline(mix.lc.app, mix.lc.load, seed);
    std::vector<SchemeUnderTest> suts;
    for (const char *fig : {"fig9", "fig13"})
        for (const auto &s : registered(fig).schemes)
            suts.push_back(s);
    for (const SchemeUnderTest &sut : suts) {
        CmpConfig cc = cfg.baseCmpConfig(true);
        sut.applyTo(cc);
        std::vector<LcAppSpec> lc(3);
        for (LcAppSpec &s : lc) {
            s.params = mix.lc.app.scaled(cfg.scale);
            s.meanInterarrival = base.meanInterarrival;
            s.roiRequests = cfg.roiRequests;
            s.warmupRequests = cfg.warmupRequests;
            s.targetLines = cfg.privateLines();
            s.deadline = base.p95;
        }
        std::vector<BatchAppSpec> batch(3);
        for (std::size_t i = 0; i < 3; i++)
            batch[i].params = mix.batch.apps[i].scaled(cfg.scale);
        Cmp cmp(cc, lc, batch, MixRunner::mixCmpSeed(seed));
        auto t0 = Clock::now();
        {
            Scope sp(tr, "cmp.run");
            cmp.run();
        }
        double sec = secondsBetween(t0, Clock::now());
        std::uint64_t accesses = 0;
        for (PartId p = 0; p < cmp.scheme().numPartitions(); p++)
            accesses += cmp.scheme().accesses(p);
        std::string key = "cmp." + metricLabel(sut.label);
        m[key + ".accesses"] = static_cast<double>(accesses);
        m[key + ".ns_per_access"] =
            accesses ? sec * 1e9 / static_cast<double>(accesses) : 0;
    }
}

/** Best-effort page-cache eviction, as perf_trace does. */
void
dropPageCache(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    ::fsync(fd);
#ifdef POSIX_FADV_DONTNEED
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
    ::close(fd);
}

std::uint64_t
drainReader(const std::string &path, TraceReaderOptions opt)
{
    TraceReader reader(path, opt);
    TraceBatch batch;
    while (reader.next(batch)) {
    }
    return reader.contentHash();
}

/**
 * L6: capture, write, read back and analyze perf_trace's default
 * trace (specjbb at scale 8, ~2M accesses, seed 1); then the advisor
 * on the analyzed curve.
 */
void
probeTrace(Tracer &tr, Metrics &m, ParityLog &parity,
           const std::string &dir)
{
    LcAppParams params = lc_presets::specjbb().scaled(8.0);
    double acc_per_req = params.work.mean() * params.apki / 1000.0;
    std::uint64_t nreq = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(2000000.0 / acc_per_req));
    TraceData td;
    auto t0 = Clock::now();
    {
        Scope sp(tr, "trace.capture");
        td = captureLcTrace(params, nreq, /*seed=*/1);
    }
    m["trace.capture_ms"] = secondsBetween(t0, Clock::now()) * 1e3;
    const double nacc = static_cast<double>(td.accesses.size());

    std::string v1 = dir + "/perf.v1.ubtr", v2 = dir + "/perf.v2.ubtr";
    writeTrace(td, v1, TraceWriterOptions{1, 64 << 10});
    writeTrace(td, v2);
    parity.check("trace.read-v1", traceContentHash(readTrace(v1)),
                 kPinnedTraceContentHash);
    parity.check("trace.read-v2", traceContentHash(readTrace(v2)),
                 kPinnedTraceContentHash);
    TraceReaderOptions sync;
    sync.prefetch = false;
    parity.check("trace.stream-sync", drainReader(v2, sync),
                 kPinnedTraceContentHash);

    // Warm streamed read (perf_trace's stream/v2/prefetch row).
    dropPageCache(v2);
    drainReader(v2, {});
    std::uint64_t hash = 0;
    double read_s = medianSeconds(3, [&] {
        Scope sp(tr, "trace.read");
        hash = drainReader(v2, {});
    });
    parity.check("trace.stream-prefetch", hash, kPinnedTraceContentHash);
    m["trace.read_maccess_per_s"] = nacc / read_s / 1e6;

    TraceAnalysis an;
    double analyze_s = medianSeconds(1, [&] {
        Scope sp(tr, "trace.analyze");
        an = analyzeTraceFile(v2);
    });
    parity.check("trace.analyze", an.footprintLines,
                 kPinnedTraceFootprint);
    m["trace.analyze_maccess_per_s"] = nacc / analyze_s / 1e6;

    // core/advisor on the analyzed curve, as `ubik_trace --analyze
    // --deadline-us` calls it.
    std::uint64_t target = std::max<std::uint64_t>(1, an.footprintLines / 2);
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
    in.deadline = static_cast<Cycles>(500e-6 * kClockHz);
    in.boostCap = target * 4;
    const int reps = 200;
    auto a0 = Clock::now();
    {
        Scope sp(tr, "core.advise");
        for (int i = 0; i < reps; i++)
            (void)advise(in);
    }
    m["core.advise_us"] = secondsBetween(a0, Clock::now()) * 1e6 / reps;

    std::error_code ec;
    std::filesystem::remove(v1, ec);
    std::filesystem::remove(v2, ec);
}

/** queueing: a G/G/4 queue at 70% load with interference. */
void
probeQueueing(Tracer &tr, Metrics &m)
{
    QueueSimParams p;
    p.workers = 4;
    p.service = ServiceDistribution::lognormal(2e5, 0.5);
    p.meanInterarrival = 2e5 / (4 * 0.7);
    p.requests = 200000;
    p.warmup = 2000;
    p.interferenceFactor = 0.05;
    auto t0 = Clock::now();
    {
        Scope sp(tr, "queueing.run");
        (void)QueueSim(p, /*seed=*/1).run();
    }
    m["queueing.ns_per_request"] = secondsBetween(t0, Clock::now()) *
                                   1e9 /
                                   static_cast<double>(p.requests + p.warmup);
}

/** sim/scenario + common/json: spec parse and the canonical memo key. */
void
probeScenario(Tracer &tr, Metrics &m, const ScenarioSpec &traced)
{
    std::vector<std::string> texts;
    for (const char *name :
         {"fig9", "fig13", "fleet-utilization", "fleet-sizing"})
        texts.push_back(scenarioCanonicalJson(registered(name)));
    texts.push_back(scenarioCanonicalJson(traced));
    const int reps = 40;
    std::vector<ScenarioSpec> specs(texts.size());
    auto t0 = Clock::now();
    {
        Scope sp(tr, "scenario.parse");
        for (int r = 0; r < reps; r++)
            for (std::size_t i = 0; i < texts.size(); i++)
                specs[i] = scenarioFromJson(
                    Json::parseOrDie(texts[i], "probe spec"));
    }
    double n = static_cast<double>(reps * texts.size());
    m["scenario.parse_us"] = secondsBetween(t0, Clock::now()) * 1e6 / n;
    std::size_t bytes = 0;
    auto t1 = Clock::now();
    {
        Scope sp(tr, "scenario.canonical");
        for (int r = 0; r < reps; r++)
            for (const auto &s : specs)
                bytes += scenarioCanonicalJson(s).size();
    }
    m["scenario.canonical_us"] = secondsBetween(t1, Clock::now()) * 1e6 / n;
    if (bytes == 0)
        fatal("empty canonical specs");
}

/** fleet composition on a warm cache, one row per fleet spec. */
void
probeFleet(Tracer &tr, Metrics &m, const ExperimentConfig &cfg,
           ResultCache *cache)
{
    for (const char *name : {"fleet-utilization", "fleet-sizing"}) {
        const ScenarioSpec &spec = registered(name);
        ExperimentConfig c = scenarioConfig(spec, cfg);
        std::vector<MixSpec> mixes = buildScenarioMixes(spec, c);
        std::vector<SweepResult> sweeps =
            runSchemeSweep(c, spec.schemes, mixes, spec.ooo, cache);
        double sec = medianSeconds(5, [&] {
            Scope sp(tr, "fleet.compose");
            (void)runFleet(spec.fleet, spec.schemes, mixes, sweeps, c,
                           spec.ooo, cache);
        });
        m[std::string("fleet.compose_ms.") + name] = sec * 1e3;
    }
}

/** Resident set size of this process, KB (0 if unreadable). */
double
rssKb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::atof(line.c_str() + 6);
    return 0;
}

/** One client round trip over the daemon's unix socket. */
std::string
roundTrip(const std::string &path, const std::string &req)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return "";
    std::string resp;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        std::size_t off = 0;
        while (off < req.size()) {
            ssize_t n = ::write(fd, req.data() + off, req.size() - off);
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
        }
        ::shutdown(fd, SHUT_WR);
        char buf[65536];
        ssize_t n;
        while ((n = ::read(fd, buf, sizeof buf)) > 0)
            resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return resp;
}

/** The four serve-warm query classes, with fresh names where needed. */
std::string
classRequest(const std::string &cls, std::size_t i,
             const std::string &traced_text)
{
    auto inline_spec = [&](const std::string &canonical) {
        Json spec;
        std::string err;
        if (!Json::parse(canonical, spec, err))
            fatal("probe spec: %s", err.c_str());
        spec.set("name", "probe-" + cls + "-" + std::to_string(i));
        Json req = Json::object();
        req.set("query", "scenario");
        req.set("spec", std::move(spec));
        return req.dump();
    };
    if (cls == "memo")
        return "{\"query\":\"scenario\",\"name\":\"fig9\","
               "\"set\":[\"schemes=Ubik,LRU\"]}";
    if (cls == "sweep")
        return inline_spec(scenarioCanonicalJson(registered("fig9")));
    if (cls == "fleet")
        return inline_spec(scenarioCanonicalJson(
            registered(i % 2 ? "fleet-sizing" : "fleet-utilization")));
    return inline_spec(traced_text);
}

/**
 * fleet/serve: ServeDaemon::handleRequest per query class (wall and
 * process CPU per query), then a closed-loop exchange over the real
 * socket for the daemon's own counters (round trip minus time inside
 * the daemon, memo hit ratio, errors, memory per distinct query).
 * Returns the number of responses that were not ok:true.
 */
std::size_t
probeServe(Tracer &tr, Metrics &m, const ExperimentConfig &cfg,
           const std::string &dir, const std::string &traced_text)
{
    ServeOptions opt;
    opt.socketPath = dir + "/probe.sock";
    ServeDaemon daemon(opt, cfg);
    const char *classes[] = {"memo", "sweep", "fleet", "traced"};
    std::size_t fresh = 0;
    std::size_t bad = 0;
    auto ok = [](const std::string &resp) {
        return resp.find("\"ok\": true") != std::string::npos ||
               resp.find("\"ok\":true") != std::string::npos;
    };
    // Answer each class once untimed (fills the memo for "memo").
    for (const char *cls : classes)
        bad += !ok(daemon.handleRequest(
            classRequest(cls, fresh++, traced_text)));
    const int reps = 20;
    for (const char *cls : classes) {
        std::vector<std::string> reqs;
        for (int r = 0; r < reps; r++)
            reqs.push_back(classRequest(cls, fresh++, traced_text));
        std::vector<double> us;
        const double cpu0 = processCpuSeconds();
        for (const std::string &req : reqs) {
            auto t0 = Clock::now();
            std::string resp;
            {
                Scope sp(tr, "serve.handle", 0, fresh);
                resp = daemon.handleRequest(req);
            }
            us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
            bad += !ok(resp);
        }
        m[std::string("serve.cpu_us.") + cls] =
            (processCpuSeconds() - cpu0) * 1e6 / reps;
        m[std::string("serve.handle_us.") + cls] = median(us);
    }

    std::string err;
    if (!daemon.start(&err))
        fatal("probe daemon: %s", err.c_str());
    std::thread server([&daemon] { daemon.run(); });
    const ServeStatsSnapshot before = daemon.snapshot();
    const double rss0 = rssKb();
    const int exchange = 60;
    std::size_t distinct = 0;
    double rt_sum = 0;
    for (int i = 0; i < exchange; i++) {
        const char *cls = classes[i % 4];
        distinct += std::strcmp(cls, "memo") != 0;
        std::string req = classRequest(cls, fresh++, traced_text);
        auto t0 = Clock::now();
        std::string resp;
        {
            Scope sp(tr, "serve.round_trip", 0, fresh);
            resp = roundTrip(opt.socketPath, req);
        }
        rt_sum += secondsBetween(t0, Clock::now());
        bad += !ok(resp);
    }
    const double rss1 = rssKb();
    const ServeStatsSnapshot after = daemon.snapshot();
    daemon.requestStop();
    server.join();

    double dn = static_cast<double>(after.requests - before.requests);
    double service_s = (after.meanServiceUs * after.requests -
                        before.meanServiceUs * before.requests) /
                       1e6;
    m["serve.wait_ms"] = dn > 0 ? (rt_sum - service_s) / dn * 1e3 : 0;
    m["serve.memo_hit_ratio"] =
        dn > 0 ? static_cast<double>(after.memoHits - before.memoHits) / dn
               : 0;
    m["serve.errors"] = static_cast<double>(after.errors - before.errors);
    m["serve.accept_errors"] =
        static_cast<double>(after.acceptErrors - before.acceptErrors);
    m["serve.read_errors"] =
        static_cast<double>(after.readErrors - before.readErrors);
    m["serve.write_errors"] =
        static_cast<double>(after.writeErrors - before.writeErrors);
    m["serve.rss_kb_per_query"] =
        distinct ? (rss1 - rss0) / static_cast<double>(distinct) : 0;
    return bad;
}

int
probeMode(const std::string &dir, const std::string &traced_spec_path,
          unsigned jobs, const std::string &out)
{
    Tracer tr;
    Metrics m;
    ParityLog parity;
    std::filesystem::create_directories(dir);

    probeCache(tr, m, parity);
    probeTrace(tr, m, parity, dir);
    probeQueueing(tr, m);

    probeCmp(tr, m);

    // The serving-side probes share one cache, filled here untimed
    // with every spec the query classes ask for.
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.cacheDir = dir + "/probe_cache";
    cfg.jobs = jobs;
    const ScenarioSpec traced = loadSpec(traced_spec_path);
    {
        std::unique_ptr<ResultCache> cache = ResultCache::open(cfg.cacheDir);
        for (const char *name :
             {"fig9", "fleet-utilization", "fleet-sizing"})
            (void)runScenario(registered(name), cfg, cache.get());
        (void)runScenario(traced, cfg, cache.get());
        probeScenario(tr, m, traced);
        probeFleet(tr, m, cfg, cache.get());
    }
    const std::size_t bad =
        probeServe(tr, m, cfg, dir, scenarioCanonicalJson(traced));

    writeMetrics(m, tr, out);
    if (parity.failures)
        std::fprintf(stderr,
                     "perfbench_layers: %d probe hash(es) differ from "
                     "BENCH_hotpath.json / BENCH_trace.json\n",
                     parity.failures);
    if (bad)
        std::fprintf(stderr,
                     "perfbench_layers: %zu serve probe responses were "
                     "not ok:true\n",
                     bad);
    return parity.failures || bad ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("perfbench_layers",
            "traced in-process harness of the repository benchmark "
            "(modes: sweep, probe)");
    cli.allowPositionals("mode", "sweep or probe");
    auto &spec = cli.flag("spec", "", "sweep: scenario spec JSON");
    auto &cache_dir = cli.flag("cache-dir", "", "sweep: result cache dir");
    auto &jobs = cli.flag("jobs", static_cast<std::int64_t>(1),
                          "engine workers of the sweep, or of the "
                          "probe's serving daemon");
    auto &results = cli.flag("results", "",
                             "sweep: write the results JSON here");
    auto &dir = cli.flag("dir", "", "probe: working directory");
    auto &traced_spec = cli.flag("traced-spec", "",
                                 "probe: the trace-backed query spec");
    auto &out = cli.flag("out", "", "metrics JSON path");
    cli.parse(argc, argv);

    if (cli.positionals().size() != 1 || out.value.empty())
        fatal("usage: perfbench_layers <sweep|probe> ... --out m.json");
    const std::string mode = cli.positionals().front();
    if (mode == "sweep") {
        if (spec.value.empty() || cache_dir.value.empty() ||
            results.value.empty() || jobs.value < 1)
            fatal("sweep needs --spec, --cache-dir, --results, --jobs");
        return sweepMode(spec.value, cache_dir.value,
                         static_cast<unsigned>(jobs.value), results.value,
                         out.value);
    }
    if (mode == "probe") {
        if (dir.value.empty() || traced_spec.value.empty() ||
            jobs.value < 1)
            fatal("probe needs --dir, --traced-spec and --jobs");
        return probeMode(dir.value, traced_spec.value,
                         static_cast<unsigned>(jobs.value), out.value);
    }
    fatal("unknown mode '%s' (sweep, probe)", mode.c_str());
}
