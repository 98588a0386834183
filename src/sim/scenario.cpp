#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <type_traits>

#include "common/log.h"
#include "common/parse_num.h"
#include "sim/parallel_sweep.h"
#include "sim/result_cache.h"
#include "workload/trace_app.h"

namespace ubik {

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------
//
// Each spec struct declares its JSON keys once, in its fields() list.
// The writer, the reader and the reader's unknown-key check all walk
// that list:
//   v(key, member)             optional; absent = the member's default
//   v(key, member, written)    the writer emits it only when `written`
//   v(key, member, kRequired)  must be present (a string non-empty)
// Integers take [0, 2^32-1], except the one u64 seed (burst_seed),
// which takes the integers a JSON number holds exactly.

namespace {

constexpr std::uint64_t kU32Max = 0xFFFFFFFFull;
constexpr std::uint64_t kSeedMax = (1ull << 53) - 1;

/** A field's third argument: whether the writer emits it (a bool), or
 *  kRequired. */
struct FieldUse
{
    constexpr FieldUse(bool written = true, bool required = false)
        : written(written), required(required)
    {
    }

    bool written;
    bool required;
};

constexpr FieldUse kRequired{true, true};

/** A Cycles member the schema keeps to the u32 range. */
struct AsU32
{
    Cycles &value;
};

template <class V>
void
fields(V &v, UbikConfig &u)
{
    // No "slack": a scheme's one slack is SchemeUnderTest::slack.
    v("idle_options", u.idleOptions);
    v("deboost_guard", u.deboostGuard);
    v("accurate_deboost", u.accurateDeboost);
}

template <class V>
void
fields(V &v, MemoryParams &m)
{
    v("channels", m.channels);
    v("channel_occupancy", AsU32{m.channelOccupancy});
}

template <class V>
void
fields(V &v, SchemeUnderTest &s)
{
    v("label", s.label, kRequired);
    v("policy", s.policy);
    v("scheme", s.scheme);
    v("array", s.array);
    v("slack", s.slack);
    v("ubik", s.ubik);
    v("reconfig_scale", s.reconfigScale);
    v("mem", s.mem);
    v("mem_params", s.memParams);
}

template <class V>
void
fields(V &v, BatchSel &b)
{
    v("class", b.cls);
    v("variation", b.variation);
}

template <class V>
void
fields(V &v, ScenarioMix &m)
{
    v("name", m.name, !m.name.empty());
    v("lc", m.lcPreset);
    v("load", m.load);
    v("batch", m.batch);
    v("batch_name", m.batchName, !m.batchName.empty());
    v("lc_traces", m.lcTraces, !m.lcTraces.empty());
    v("batch_traces", m.batchTraces, !m.batchTraces.empty());
}

/** Written: the kind plus that kind's parameters, the same set
 *  LoadProfile::canonical() keys on. */
template <class V>
void
fields(V &v, LoadProfile &p)
{
    using K = LoadProfileKind;
    const K k = p.kind;
    v("kind", p.kind);
    v("amplitude", p.amplitude, k == K::Diurnal);
    v("periods", p.periods, k == K::Diurnal);
    v("start", p.start, k == K::FlashCrowd || k == K::Churn);
    v("bursts", p.bursts, k == K::Bursts);
    v("duration", p.duration, k != K::Constant && k != K::Diurnal);
    v("multiplier", p.multiplier, k == K::FlashCrowd || k == K::Bursts);
    v("burst_seed", p.burstSeed, k == K::Bursts);
}

template <class V>
void
fields(V &v, ArrivalSpec &a)
{
    v("users", a.users);
    v("nominal_load", a.nominalLoad);
    v("slices", a.slices);
    v("imbalance", a.imbalance);
    v("load_profile", a.profile);
}

template <class V>
void
fields(V &v, FleetSpec &f)
{
    v("servers", f.servers);
    v("arrivals", f.arrivals);
    v("queue_workers", f.queueWorkers);
    v("interference", f.interference);
    v("abort_prob", f.abortProb);
    v("tail_target_ms", f.tailTargetMs);
}

template <class V>
void
fields(V &v, ReportBlock &b)
{
    v("kind", b.kind, kRequired);
    v("tag", b.tag, kRequired);
    v("load", b.band, b.band != LoadBand::All);
}

template <class V>
void
fields(V &v, ScenarioSpec &s)
{
    v("name", s.name, kRequired);
    v("title", s.title);
    v("notes", s.notes, !s.notes.empty());
    v("schemes", s.schemes);
    v("source", s.source);
    v("mixes_per_lc", s.mixesPerLcCap, s.mixesPerLcCap != 0);
    v("load", s.band, s.band != LoadBand::All);
    v("mixes", s.mixes, !s.mixes.empty());
    v("ooo", s.ooo);
    v("seeds", s.seeds, s.seeds != 0);
    v("load_profile", s.profile, !s.profile.isConstant());
    v("reports", s.reports);
    v("fleet", s.fleet, s.fleet.servers != 0);
}

template <class T>
constexpr bool kIsList = false;
template <class T>
constexpr bool kIsList<std::vector<T>> = true;
template <class T, std::size_t N>
constexpr bool kIsList<std::array<T, N>> = true;

template <class T>
void
write(JsonWriter &w, const T &m)
{
    if constexpr (std::is_enum_v<T>)
        w.value(enumName(m));
    else if constexpr (std::is_same_v<T, AsU32>)
        w.value(m.value);
    else if constexpr (std::is_arithmetic_v<T> ||
                       std::is_same_v<T, std::string>)
        w.value(m);
    else if constexpr (kIsList<T>) {
        w.beginArray();
        for (const auto &e : m)
            write(w, e);
        w.endArray();
    } else {
        w.beginObject();
        auto writer = [&](const char *key, const auto &v, FieldUse use = {}) {
            if (use.written) {
                w.key(key);
                write(w, v);
            }
        };
        fields(writer, const_cast<T &>(m)); // the writer only reads
        w.endObject();
    }
}

/** A value's place in the spec ("spec.fleet.arrivals"), chained on
 *  the reader's stack and rendered only for an error message. */
struct SpecPath
{
    const SpecPath *parent;
    const char *key;

    std::string
    str() const
    {
        return parent ? parent->str() + "." + key : key;
    }
};

std::uint64_t
readInt(const Json &v, std::uint64_t max, const SpecPath &at)
{
    const double d = v.number();
    if (!(d >= 0) || d != std::floor(d) || d > static_cast<double>(max))
        fatal("scenario %s: must be a non-negative integer <= %llu",
              at.str().c_str(), static_cast<unsigned long long>(max));
    return static_cast<std::uint64_t>(d);
}

template <class T>
void readStruct(const Json &j, T &out, const SpecPath &at);

template <class T>
void
read(const Json &v, T &m, const SpecPath &at)
{
    if constexpr (std::is_same_v<T, std::string>)
        m = v.str();
    else if constexpr (std::is_same_v<T, double>)
        m = v.number();
    else if constexpr (std::is_same_v<T, bool>)
        m = v.boolean();
    else if constexpr (std::is_same_v<T, std::uint32_t>)
        m = static_cast<std::uint32_t>(readInt(v, kU32Max, at));
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        m = readInt(v, kSeedMax, at);
    else if constexpr (std::is_same_v<T, AsU32>)
        m.value = readInt(v, kU32Max, at);
    else if constexpr (std::is_enum_v<T>) {
        const std::string &name = v.str();
        if (!tryEnumFromName(name, m))
            m = enumFromName<T>(name, ("scenario " + at.str()).c_str());
    } else if constexpr (kIsList<T>) {
        const std::vector<Json> &items = v.items();
        if constexpr (std::is_same_v<T, std::vector<typename T::value_type>>)
            m.resize(items.size());
        else if (items.size() != m.size())
            fatal("scenario %s: needs exactly %zu entries (has %zu)",
                  at.str().c_str(), m.size(), items.size());
        for (std::size_t i = 0; i < items.size(); i++)
            read(items[i], m[i], at);
    } else {
        readStruct(v, m, at);
    }
}

/** Read `j` into the default-constructed `out`, rejecting any member
 *  its field list does not name, then run the checks and defaults
 *  that span fields. */
template <class T>
void
readStruct(const Json &j, T &out, const SpecPath &at)
{
    std::size_t seen = 0; // listed keys present
    auto reader = [&](const char *key, auto &&m, FieldUse use = {}) {
        const Json *v = j.find(key);
        if (v) {
            seen++;
            read(*v, m, SpecPath{&at, key});
        }
        bool missing = !v;
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                     std::string>)
            missing = missing || m.empty();
        if (use.required && missing)
            fatal("scenario %s: \"%s\" is required", at.str().c_str(),
                  key);
    };
    fields(reader, out);
    if (seen != j.size())
        for (const auto &member : j.members()) {
            bool listed = false;
            auto probe = [&](const char *key, auto &&, FieldUse = {}) {
                listed = listed || member.first == key;
            };
            fields(probe, out);
            if (!listed)
                fatal("scenario %s: unknown key \"%s\"",
                      at.str().c_str(), member.first.c_str());
        }
    if constexpr (std::is_same_v<T, LoadProfile>)
        out.validate("scenario load_profile");
    if constexpr (std::is_same_v<T, FleetSpec>)
        out.validate("scenario fleet");
    if constexpr (std::is_same_v<T, ScenarioSpec>)
        if (!j.find("title"))
            out.title = out.name;
}

} // namespace

Json
scenarioToJson(const ScenarioSpec &spec)
{
    return writtenJson([&](JsonWriter &w) { write(w, spec); });
}

ScenarioSpec
scenarioFromJson(const Json &j)
{
    ScenarioSpec spec;
    readStruct(j, spec, SpecPath{nullptr, "spec"});
    return spec;
}

std::string
scenarioCanonicalJson(const ScenarioSpec &spec)
{
    std::string text;
    JsonWriter w(text, /*pretty=*/true);
    write(w, spec);
    return text;
}

// ---------------------------------------------------------------------------
// Overrides
// ---------------------------------------------------------------------------

namespace {

std::uint32_t
toU32(const std::string &value, const char *where)
{
    std::uint64_t v = 0;
    if (!parseU64Strict(value.c_str(), 0xFFFFFFFFull, v))
        fatal("%s: '%s' is not a non-negative integer", where,
              value.c_str());
    return static_cast<std::uint32_t>(v);
}

/** Comma-separated label filter, keeping spec order. */
void
overrideSchemes(ScenarioSpec &spec, const std::string &value,
                const char *where)
{
    std::vector<std::string> want;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= value.size(); i++) {
        if (i == value.size() || value[i] == ',') {
            if (i > start)
                want.push_back(value.substr(start, i - start));
            start = i + 1;
        }
    }
    // An empty filter (or one of only separators/whitespace) would
    // silently empty spec.schemes and run a zero-scheme sweep; a
    // repeated label is equally a typo. Both die here.
    if (want.empty())
        fatal("%s: empty label filter would leave scenario '%s' with no "
              "schemes to run",
              where, spec.name.c_str());
    for (std::size_t i = 0; i < want.size(); i++)
        for (std::size_t k = i + 1; k < want.size(); k++)
            if (want[i] == want[k])
                fatal("%s: label '%s' listed twice", where,
                      want[i].c_str());
    std::vector<SchemeUnderTest> kept;
    for (const auto &s : spec.schemes)
        if (std::find(want.begin(), want.end(), s.label) != want.end())
            kept.push_back(s);
    for (const auto &w : want) {
        bool found = false;
        for (const auto &s : spec.schemes)
            found = found || s.label == w;
        if (!found)
            fatal("%s: no scheme labeled '%s' in scenario '%s'", where,
                  w.c_str(), spec.name.c_str());
    }
    spec.schemes = std::move(kept);
}

void
overrideServers(ScenarioSpec &spec, const std::string &value,
                const char *where)
{
    // Resize the fleet stage; meaningless on a scenario without one
    // (there is no sensible default for the rest of the fleet block,
    // so refuse rather than invent one).
    if (spec.fleet.servers == 0)
        fatal("%s: scenario '%s' has no fleet stage", where,
              spec.name.c_str());
    std::uint32_t n = toU32(value, where);
    if (n == 0)
        fatal("%s: must be >= 1", where);
    spec.fleet.servers = n;
}

/** One `--set` key: what it edits, glossed for --help where the key
 *  alone does not say. `where` is "--set <key>". */
struct OverrideKey
{
    const char *key;
    const char *gloss;
    void (*apply)(ScenarioSpec &spec, const std::string &value,
                  const char *where);
};

const OverrideKey kOverrideKeys[] = {
    {"seeds", "", [](auto &s, auto &v, auto w) { s.seeds = toU32(v, w); }},
    {"mixes", "per-LC mix cap",
     [](auto &s, auto &v, auto w) { s.mixesPerLcCap = toU32(v, w); }},
    {"load", "all/low/high",
     [](auto &s, auto &v, auto w) { s.band = enumFromName<LoadBand>(v, w); }},
    {"ooo", "bool",
     [](auto &s, auto &v, auto w) {
         if (v != "1" && v != "true" && v != "0" && v != "false")
             fatal("%s: '%s' is not a boolean", w, v.c_str());
         s.ooo = v == "1" || v == "true";
     }},
    {"source", "",
     [](auto &s, auto &v, auto w) {
         s.source = enumFromName<MixSource>(v, w);
     }},
    // Kind only, at the default parameters; full profiles come from
    // the spec file's "load_profile" block.
    {"profile", "load-profile kind",
     [](auto &s, auto &v, auto w) {
         LoadProfile p;
         p.kind = enumFromName<LoadProfileKind>(v, w);
         p.validate(w);
         s.profile = p;
     }},
    {"schemes", "label filter", overrideSchemes},
    {"servers", "fleet size", overrideServers},
};

} // namespace

std::string
scenarioOverrideKeys()
{
    std::string out;
    for (const OverrideKey &k : kOverrideKeys) {
        if (!out.empty())
            out += ", ";
        out += k.key;
        if (*k.gloss)
            out.append(" (").append(k.gloss).append(")");
    }
    return out;
}

void
applyScenarioOverride(ScenarioSpec &spec, const std::string &assignment)
{
    auto eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("--set needs key=value (got '%s')", assignment.c_str());
    const std::string key = assignment.substr(0, eq);
    for (const OverrideKey &k : kOverrideKeys)
        if (key == k.key) {
            k.apply(spec, assignment.substr(eq + 1),
                    ("--set " + key).c_str());
            return;
        }
    fatal("--set: unknown key '%s' (%s)", key.c_str(),
          scenarioOverrideKeys().c_str());
}

void
applyScenarioOverrides(ScenarioSpec &spec,
                       const std::vector<std::string> &sets)
{
    for (const auto &s : sets)
        applyScenarioOverride(spec, s);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

ExperimentConfig
scenarioConfig(const ScenarioSpec &spec, ExperimentConfig cfg)
{
    if (spec.seeds)
        cfg.seeds = spec.seeds;
    return cfg;
}

namespace {

std::vector<MixSpec>
filterBand(std::vector<MixSpec> mixes, LoadBand band)
{
    if (band == LoadBand::All)
        return mixes;
    std::vector<MixSpec> out;
    for (auto &m : mixes)
        if (isLowLoad(m.lc.load) == (band == LoadBand::Low))
            out.push_back(std::move(m));
    return out;
}

/** One streamed load + content hash per distinct path, shared across
 *  every mix of one expansion (mixes routinely replay one trace). */
class TraceLoader
{
  public:
    std::vector<std::shared_ptr<const TraceApp>>
    load(const std::vector<std::string> &paths, const char *what,
         const std::string &mix_name)
    {
        if (paths.size() != 0 && paths.size() != 1 &&
            paths.size() != 3)
            fatal("mix %s: %s must list 0, 1, or 3 traces (has %zu)",
                  mix_name.c_str(), what, paths.size());
        std::vector<std::shared_ptr<const TraceApp>> out;
        for (const auto &p : paths) {
            auto it = cache_.find(p);
            if (it == cache_.end())
                it = cache_.emplace(p, TraceApp::load(p)).first;
            out.push_back(it->second);
        }
        return out;
    }

  private:
    std::map<std::string, std::shared_ptr<const TraceApp>> cache_;
};

MixSpec
expandMix(const ScenarioMix &e, TraceLoader &traces)
{
    MixSpec m;
    m.lc.app = lc_presets::byName(e.lcPreset);
    m.lc.load = e.load;
    std::string codes;
    for (std::size_t i = 0; i < e.batch.size(); i++) {
        m.batch.apps[i] =
            batch_presets::make(e.batch[i].cls, e.batch[i].variation);
        codes += enumName(e.batch[i].cls);
    }
    m.batch.name = e.batchName.empty() ? codes : e.batchName;
    m.name = e.name.empty()
                 ? e.lcPreset + (isLowLoad(e.load) ? "-lo" : "-hi") +
                       "/" + m.batch.name
                 : e.name;
    m.lc.traces = traces.load(e.lcTraces, "lc_traces", m.name);
    m.batch.traces =
        traces.load(e.batchTraces, "batch_traces", m.name);
    return m;
}

} // namespace

std::vector<MixSpec>
buildScenarioMixes(const ScenarioSpec &spec,
                   const ExperimentConfig &cfg)
{
    // The per-LC cap parameterizes the standard matrix only; accepting
    // it silently elsewhere would run a far bigger sweep than the user
    // asked to cap.
    if (spec.mixesPerLcCap && spec.source != MixSource::Standard)
        fatal("scenario '%s': mixes_per_lc only applies to the "
              "standard mix source (source is %s)",
              spec.name.c_str(), enumName(spec.source));
    // Likewise, hand-listed mixes with a non-explicit source would
    // silently run the full standard matrix instead of the user's
    // colocations (the classic forgotten "source": "explicit").
    if (!spec.mixes.empty() && spec.source != MixSource::Explicit)
        fatal("scenario '%s': \"mixes\" are listed but the source is "
              "%s — set \"source\": \"explicit\" to run them",
              spec.name.c_str(), enumName(spec.source));
    spec.profile.validate(
        ("scenario '" + spec.name + "' load_profile").c_str());
    std::vector<MixSpec> selected;
    switch (spec.source) {
      case MixSource::Standard: {
        std::uint32_t per_lc = cfg.mixesPerLc;
        if (spec.mixesPerLcCap)
            per_lc = std::min(per_lc, spec.mixesPerLcCap);
        selected =
            filterBand(buildMixes(2, /*seed=*/1, per_lc), spec.band);
        break;
      }
      case MixSource::CacheHungry:
        selected = filterBand(cacheHungryMixes(), spec.band);
        break;
      case MixSource::Explicit: {
        if (spec.mixes.empty())
            fatal("scenario '%s': source is explicit but \"mixes\" "
                  "is empty",
                  spec.name.c_str());
        // Filter before expanding so band-excluded mixes never load
        // their traces.
        TraceLoader traces;
        for (const auto &e : spec.mixes) {
            if (spec.band != LoadBand::All &&
                isLowLoad(e.load) != (spec.band == LoadBand::Low))
                continue;
            selected.push_back(expandMix(e, traces));
        }
        break;
      }
    }
    // The spec's load profile applies to every selected mix's LC
    // side; it rides inside the MixSpec from here on (through
    // MixRunner into the Cmp arrival pump and the cache keys).
    for (MixSpec &m : selected)
        m.lc.profile = spec.profile;
    // Static sharding (--shard i/n): keep every n-th mix. A pure
    // selection — cache keys are untouched — so shards filled by
    // separate CI jobs merge into one coherent cache, and any job can
    // later serve the full matrix from it.
    if (cfg.shardCount > 1) {
        std::vector<MixSpec> mine;
        for (std::size_t i = 0; i < selected.size(); i++)
            if (i % cfg.shardCount == cfg.shardIndex)
                mine.push_back(std::move(selected[i]));
        std::fprintf(stderr,
                     "  [shard] %u/%u: %zu of %zu mixes selected\n",
                     cfg.shardIndex, cfg.shardCount, mine.size(),
                     selected.size());
        selected = std::move(mine);
    }
    return selected;
}

std::vector<SweepResult>
runSchemeSweep(const ExperimentConfig &cfg,
               const std::vector<SchemeUnderTest> &schemes,
               const std::vector<MixSpec> &mixes, bool ooo,
               ResultCache *cache, SweepAccounting *acct,
               std::FILE *progress)
{
    MixRunner runner(cfg, ooo);
    runner.attachCache(cache);
    ParallelSweep engine(runner, cfg.jobs);
    std::vector<SweepJob> jobs =
        buildSweepJobs(schemes, mixes, cfg.seeds);
    // Live progress from inside the engine (the per-scheme summary
    // lines below only appear once the whole sweep is done).
    std::size_t step = std::max<std::size_t>(1, jobs.size() / 20);
    SweepProgress last;
    std::vector<MixRunResult> results = engine.run(
        jobs, buildSweepKeys(cfg, ooo, schemes, mixes, cfg.seeds),
        [&](const SweepProgress &p) {
            last = p;
            if (progress && (p.done % step == 0 || p.done == p.total))
                std::fprintf(progress,
                             "  [sweep] %zu/%zu runs done "
                             "(%zu cached, %zu computed, %zu remote, "
                             "%.1fs)\n",
                             p.done, p.total, p.hits, p.computed,
                             p.remote, p.elapsedSec);
        });
    // Machine-greppable per-process accounting: CI sums `computed=`
    // across fleet workers to prove zero duplicate computation,
    // `degraded=` counts fault-tolerance events of the cache and the
    // fleet fill (0 on a clean run), `reclaimed=` the expired leases
    // of crashed peers this worker removed, and elapsed/rate give
    // each worker's wall-clock throughput (rate is
    // computed-per-second — cache hits are free).
    const FleetCounters &fleet = engine.fleetCounters();
    const SweepAccounting a{engine.worker(), jobs.size(), last.hits,
                            last.computed, last.remote,
                            cache->stats().degraded() + fleet.degraded(),
                            last.elapsedSec, engine.workers()};
    if (progress)
        std::fprintf(progress,
                     "  [sweep-summary] worker=%s jobs=%zu hits=%zu "
                     "computed=%zu remote=%zu degraded=%llu "
                     "reclaimed=%llu elapsed=%.2fs rate=%.2f/s\n",
                     a.worker.c_str(), a.jobs, a.hits, a.computed,
                     a.remote, static_cast<unsigned long long>(a.degraded),
                     static_cast<unsigned long long>(fleet.reclaimed),
                     a.elapsedSec, a.rate());
    if (acct)
        *acct = a;

    // Regroup the flat job-ordered results per scheme (jobs are
    // scheme-major, so each scheme's block is contiguous).
    std::vector<SweepResult> out;
    std::size_t next = 0;
    for (const auto &sut : schemes) {
        SweepResult sr;
        sr.label = sut.label;
        for (const auto &mix : mixes)
            for (std::uint32_t s = 0; s < cfg.seeds; s++) {
                sr.runs.push_back(results[next++]);
                sr.mixNames.push_back(mix.name);
                sr.mixLoads.push_back(mix.lc.load);
                sr.seeds.push_back(s + 1);
            }
        if (progress)
            std::fprintf(progress, "  [%s] %zu runs done (%u workers)\n",
                         sr.label.c_str(), sr.runs.size(),
                         engine.workers());
        out.push_back(std::move(sr));
    }
    return out;
}

ScenarioResult
runScenario(const ScenarioSpec &spec, const ExperimentConfig &cfg0,
            ResultCache *shared, std::FILE *progress)
{
    if (spec.schemes.empty())
        fatal("scenario '%s': no schemes to run", spec.name.c_str());
    spec.fleet.validate(
        ("scenario '" + spec.name + "' fleet").c_str());
    ExperimentConfig cfg = scenarioConfig(spec, cfg0);
    std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
    if (mixes.empty())
        fatal("scenario '%s': mix selection is empty",
              spec.name.c_str());
    // One cache open serves both the sweep and the fleet stage (the
    // sweep warms the baselines the composition re-reads).
    std::unique_ptr<ResultCache> owned;
    if (!shared)
        owned = ResultCache::open(cfg.cacheDir);
    ResultCache *cache = shared ? shared : owned.get();
    ScenarioResult res;
    res.sweeps = runSchemeSweep(cfg, spec.schemes, mixes, spec.ooo,
                                cache, &res.accounting, progress);
    if (spec.fleet.servers) {
        res.fleet = runFleet(spec.fleet, spec.schemes, mixes,
                             res.sweeps, cfg, spec.ooo, cache);
        res.hasFleet = true;
    }
    // One [cache] line for the whole run, fleet stage included.
    if (progress && cache->persistent())
        printCacheStats(*cache, progress);
    res.mixes = std::move(mixes);
    return res;
}

void
renderReports(const ScenarioSpec &spec, const ScenarioResult &res)
{
    for (const ReportBlock &b : spec.reports) {
        std::vector<SweepResult> view =
            filterByLoad(res.sweeps, b.band);
        switch (b.kind) {
          case ReportKind::Distributions:
            printDistributions(view, b.tag.c_str());
            break;
          case ReportKind::Averages:
            printAverages(view, b.tag.c_str());
            break;
          case ReportKind::PerApp:
            printPerApp(view, b.tag.c_str());
            break;
          case ReportKind::UbikInterrupts:
            printUbikInterrupts(view, b.tag.c_str());
            break;
        }
    }
}

void
writeScenarioResults(JsonWriter &w, const ScenarioSpec &spec,
                     const ScenarioResult &res, bool accounting)
{
    w.beginObject();
    writeResultsMembers(w, res.sweeps, spec.name);
    if (res.hasFleet) {
        w.key("fleet");
        writeFleet(w, res.fleet);
    }
    if (accounting) {
        const SweepAccounting &a = res.accounting;
        w.key("sweep").beginObject();
        w.member("worker", a.worker);
        w.member("jobs", a.jobs);
        w.member("hits", a.hits);
        w.member("computed", a.computed);
        w.member("remote", a.remote);
        w.member("degraded", a.degraded);
        w.member("elapsed_sec", a.elapsedSec);
        w.member("rate_per_sec", a.rate());
        w.member("workers", a.workers);
        w.endObject();
    }
    w.endObject();
}

Json
scenarioResultsJson(const ScenarioSpec &spec,
                    const ScenarioResult &res, bool accounting)
{
    return writtenJson([&](JsonWriter &w) {
        writeScenarioResults(w, spec, res, accounting);
    });
}

int
executeScenario(const ScenarioSpec &spec, ExperimentConfig cfg,
                const std::string &results_path, bool accounting)
{
    cfg = scenarioConfig(spec, cfg);
    cfg.printHeader(spec.title.c_str());
    ScenarioResult res = runScenario(spec, cfg);
    renderReports(spec, res);
    if (res.hasFleet)
        printFleetReport(res.fleet);
    if (!results_path.empty()) {
        std::string text;
        JsonWriter w(text, /*pretty=*/true);
        writeScenarioResults(w, spec, res, accounting);
        writeTextFile(text, results_path);
        std::fprintf(stderr, "  [%s] wrote %s\n", spec.name.c_str(),
                     results_path.c_str());
    }
    if (!spec.notes.empty())
        std::printf("\n%s\n", spec.notes.c_str());
    return 0;
}

const ScenarioSpec *
ScenarioRegistry::find(const std::string &name) const
{
    for (const auto &s : specs_)
        if (s.name == name)
            return &s;
    return nullptr;
}

const std::vector<ScenarioSpec> &
ScenarioRegistry::all() const
{
    return specs_;
}

} // namespace ubik
