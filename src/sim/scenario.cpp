#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "common/log.h"
#include "sim/claim_store.h"
#include "sim/kind_names.h"
#include "sim/parallel_sweep.h"
#include "sim/result_cache.h"
#include "workload/trace_app.h"

namespace ubik {

// ---------------------------------------------------------------------------
// Kind names
// ---------------------------------------------------------------------------

const char *
mixSourceName(MixSource s)
{
    switch (s) {
      case MixSource::Standard:
        return "standard";
      case MixSource::CacheHungry:
        return "cache-hungry";
      case MixSource::Explicit:
        return "explicit";
    }
    panic("bad MixSource");
}

bool
tryMixSourceFromName(const std::string &name, MixSource &out)
{
    for (MixSource s : {MixSource::Standard, MixSource::CacheHungry,
                        MixSource::Explicit}) {
        if (name == mixSourceName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const char *
reportKindName(ReportKind k)
{
    switch (k) {
      case ReportKind::Distributions:
        return "distributions";
      case ReportKind::Averages:
        return "averages";
      case ReportKind::PerApp:
        return "per-app";
      case ReportKind::UbikInterrupts:
        return "ubik-interrupts";
      case ReportKind::Csv:
        return "csv";
      case ReportKind::Json:
        return "json";
    }
    panic("bad ReportKind");
}

bool
tryReportKindFromName(const std::string &name, ReportKind &out)
{
    for (ReportKind k :
         {ReportKind::Distributions, ReportKind::Averages,
          ReportKind::PerApp, ReportKind::UbikInterrupts,
          ReportKind::Csv, ReportKind::Json}) {
        if (name == reportKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

namespace {

/** Reject unknown keys so spec typos fail loudly. */
void
checkKeys(const Json &obj, std::initializer_list<const char *> allowed,
          const char *what)
{
    for (const auto &m : obj.members()) {
        bool ok = false;
        for (const char *k : allowed)
            if (m.first == k) {
                ok = true;
                break;
            }
        if (!ok)
            fatal("scenario %s: unknown key \"%s\"", what,
                  m.first.c_str());
    }
}

std::string
strField(const Json &obj, const char *key, const std::string &def)
{
    const Json *v = obj.find(key);
    return v ? v->str() : def;
}

double
numField(const Json &obj, const char *key, double def)
{
    const Json *v = obj.find(key);
    return v ? v->number() : def;
}

bool
boolField(const Json &obj, const char *key, bool def)
{
    const Json *v = obj.find(key);
    return v ? v->boolean() : def;
}

std::uint32_t
u32Field(const Json &obj, const char *key, std::uint32_t def)
{
    const Json *v = obj.find(key);
    if (!v)
        return def;
    double d = v->number();
    if (d < 0 || d != std::floor(d) || d > 4294967295.0)
        fatal("scenario: \"%s\" must be a non-negative integer", key);
    return static_cast<std::uint32_t>(d);
}

Json
ubikToJson(const UbikConfig &u)
{
    Json j = Json::object();
    j.set("slack", u.slack);
    j.set("idle_options", u.idleOptions);
    j.set("deboost_guard", u.deboostGuard);
    j.set("slack_gain", u.slackGain);
    j.set("duty_alpha", u.dutyAlpha);
    j.set("accurate_deboost", u.accurateDeboost);
    return j;
}

UbikConfig
ubikFromJson(const Json &j)
{
    checkKeys(j,
              {"slack", "idle_options", "deboost_guard", "slack_gain",
               "duty_alpha", "accurate_deboost"},
              "scheme.ubik");
    UbikConfig u;
    u.slack = numField(j, "slack", u.slack);
    u.idleOptions = u32Field(j, "idle_options", u.idleOptions);
    u.deboostGuard = numField(j, "deboost_guard", u.deboostGuard);
    u.slackGain = numField(j, "slack_gain", u.slackGain);
    u.dutyAlpha = numField(j, "duty_alpha", u.dutyAlpha);
    u.accurateDeboost =
        boolField(j, "accurate_deboost", u.accurateDeboost);
    return u;
}

Json
memParamsToJson(const MemoryParams &m)
{
    Json j = Json::object();
    j.set("base_latency", m.baseLatency);
    j.set("channels", m.channels);
    j.set("channel_occupancy", m.channelOccupancy);
    return j;
}

MemoryParams
memParamsFromJson(const Json &j)
{
    checkKeys(j, {"base_latency", "channels", "channel_occupancy"},
              "scheme.mem_params");
    MemoryParams m;
    m.baseLatency = static_cast<Cycles>(
        u32Field(j, "base_latency",
                 static_cast<std::uint32_t>(m.baseLatency)));
    m.channels = u32Field(j, "channels", m.channels);
    m.channelOccupancy = static_cast<Cycles>(
        u32Field(j, "channel_occupancy",
                 static_cast<std::uint32_t>(m.channelOccupancy)));
    return m;
}

Json
schemeToJson(const SchemeUnderTest &s)
{
    Json j = Json::object();
    j.set("label", s.label);
    j.set("policy", policyKindName(s.policy));
    j.set("scheme", schemeKindName(s.scheme));
    j.set("array", arrayKindName(s.array));
    j.set("slack", s.slack);
    j.set("ubik", ubikToJson(s.ubik));
    j.set("reconfig_scale", s.reconfigScale);
    j.set("mem", memKindName(s.mem));
    j.set("mem_params", memParamsToJson(s.memParams));
    j.set("lc_mem_share", s.lcMemShare);
    return j;
}

SchemeUnderTest
schemeFromJson(const Json &j)
{
    checkKeys(j,
              {"label", "policy", "scheme", "array", "slack", "ubik",
               "reconfig_scale", "mem", "mem_params", "lc_mem_share"},
              "scheme");
    SchemeUnderTest s;
    s.label = strField(j, "label", "");
    if (s.label.empty())
        fatal("scenario scheme: \"label\" is required");
    if (const Json *v = j.find("policy"))
        s.policy = policyKindFromName(v->str());
    if (const Json *v = j.find("scheme"))
        s.scheme = schemeKindFromName(v->str());
    if (const Json *v = j.find("array"))
        s.array = arrayKindFromName(v->str());
    s.slack = numField(j, "slack", s.slack);
    if (const Json *v = j.find("ubik"))
        s.ubik = ubikFromJson(*v);
    s.reconfigScale = numField(j, "reconfig_scale", s.reconfigScale);
    if (const Json *v = j.find("mem"))
        s.mem = memKindFromName(v->str());
    if (const Json *v = j.find("mem_params"))
        s.memParams = memParamsFromJson(*v);
    s.lcMemShare = numField(j, "lc_mem_share", s.lcMemShare);
    return s;
}

Json
mixToJson(const ScenarioMix &m)
{
    Json j = Json::object();
    if (!m.name.empty())
        j.set("name", m.name);
    j.set("lc", m.lcPreset);
    j.set("load", m.load);
    Json batch = Json::array();
    for (const BatchSel &b : m.batch) {
        Json jb = Json::object();
        jb.set("class", std::string(1, batchClassCode(b.cls)));
        jb.set("variation", b.variation);
        batch.push(std::move(jb));
    }
    j.set("batch", std::move(batch));
    if (!m.batchName.empty())
        j.set("batch_name", m.batchName);
    if (!m.lcTraces.empty()) {
        Json t = Json::array();
        for (const auto &p : m.lcTraces)
            t.push(p);
        j.set("lc_traces", std::move(t));
    }
    if (!m.batchTraces.empty()) {
        Json t = Json::array();
        for (const auto &p : m.batchTraces)
            t.push(p);
        j.set("batch_traces", std::move(t));
    }
    return j;
}

ScenarioMix
mixFromJson(const Json &j)
{
    checkKeys(j,
              {"name", "lc", "load", "batch", "batch_name",
               "lc_traces", "batch_traces"},
              "mix");
    ScenarioMix m;
    m.name = strField(j, "name", "");
    m.lcPreset = strField(j, "lc", m.lcPreset);
    m.load = numField(j, "load", m.load);
    if (const Json *v = j.find("batch")) {
        if (v->size() != 3)
            fatal("scenario mix: \"batch\" needs exactly 3 entries "
                  "(has %zu)",
                  v->size());
        for (std::size_t i = 0; i < 3; i++) {
            const Json &jb = v->at(i);
            checkKeys(jb, {"class", "variation"}, "mix.batch");
            std::string code = strField(jb, "class", "f");
            if (code.size() != 1 ||
                !tryBatchClassFromCode(code[0], m.batch[i].cls))
                fatal("scenario mix: bad batch class \"%s\" "
                      "(one of n, f, t, s)",
                      code.c_str());
            m.batch[i].variation =
                u32Field(jb, "variation", m.batch[i].variation);
        }
    }
    m.batchName = strField(j, "batch_name", "");
    if (const Json *v = j.find("lc_traces"))
        for (const Json &p : v->items())
            m.lcTraces.push_back(p.str());
    if (const Json *v = j.find("batch_traces"))
        for (const Json &p : v->items())
            m.batchTraces.push_back(p.str());
    return m;
}

/** Kind plus its relevant parameters only, mirroring
 *  LoadProfile::canonical(), so the serialized form is canonical. */
Json
profileToJson(const LoadProfile &p)
{
    Json j = Json::object();
    j.set("kind", loadProfileKindName(p.kind));
    switch (p.kind) {
      case LoadProfileKind::Constant:
        break;
      case LoadProfileKind::Diurnal:
        j.set("amplitude", p.amplitude);
        j.set("periods", p.periods);
        break;
      case LoadProfileKind::FlashCrowd:
        j.set("start", p.start);
        j.set("duration", p.duration);
        j.set("multiplier", p.multiplier);
        break;
      case LoadProfileKind::Bursts:
        j.set("bursts", p.bursts);
        j.set("duration", p.duration);
        j.set("multiplier", p.multiplier);
        j.set("burst_seed", p.burstSeed);
        break;
      case LoadProfileKind::Churn:
        j.set("start", p.start);
        j.set("duration", p.duration);
        break;
    }
    return j;
}

LoadProfile
profileFromJson(const Json &j)
{
    checkKeys(j,
              {"kind", "amplitude", "periods", "start", "duration",
               "multiplier", "bursts", "burst_seed"},
              "load_profile");
    LoadProfile p;
    std::string kind = strField(j, "kind", "constant");
    if (!tryLoadProfileKindFromName(kind, p.kind))
        fatal("scenario load_profile: unknown kind \"%s\" (constant, "
              "diurnal, flash-crowd, bursts, churn)",
              kind.c_str());
    p.amplitude = numField(j, "amplitude", p.amplitude);
    p.periods = numField(j, "periods", p.periods);
    p.start = numField(j, "start", p.start);
    p.duration = numField(j, "duration", p.duration);
    p.multiplier = numField(j, "multiplier", p.multiplier);
    p.bursts = u32Field(j, "bursts", p.bursts);
    if (const Json *v = j.find("burst_seed")) {
        double d = v->number();
        if (d < 0 || d != std::floor(d))
            fatal("scenario load_profile: \"burst_seed\" must be a "
                  "non-negative integer");
        p.burstSeed = static_cast<std::uint64_t>(d);
    }
    p.validate("scenario load_profile");
    return p;
}

std::uint64_t
u64Field(const Json &obj, const char *key, std::uint64_t def)
{
    const Json *v = obj.find(key);
    if (!v)
        return def;
    double d = v->number();
    if (d < 0 || d != std::floor(d))
        fatal("scenario: \"%s\" must be a non-negative integer", key);
    return static_cast<std::uint64_t>(d);
}

Json
arrivalsToJson(const ArrivalSpec &a)
{
    Json j = Json::object();
    j.set("users", a.users);
    j.set("nominal_load", a.nominalLoad);
    j.set("slices", a.slices);
    j.set("imbalance", a.imbalance);
    j.set("seed", a.seed);
    j.set("load_profile", profileToJson(a.profile));
    return j;
}

ArrivalSpec
arrivalsFromJson(const Json &j)
{
    checkKeys(j,
              {"users", "nominal_load", "slices", "imbalance", "seed",
               "load_profile"},
              "fleet.arrivals");
    ArrivalSpec a;
    a.users = numField(j, "users", a.users);
    a.nominalLoad = numField(j, "nominal_load", a.nominalLoad);
    a.slices = u32Field(j, "slices", a.slices);
    a.imbalance = numField(j, "imbalance", a.imbalance);
    a.seed = u32Field(j, "seed", a.seed);
    if (const Json *v = j.find("load_profile"))
        a.profile = profileFromJson(*v);
    return a;
}

Json
fleetToJsonBlock(const FleetSpec &f)
{
    Json j = Json::object();
    j.set("servers", f.servers);
    j.set("lc_per_server", f.lcPerServer);
    j.set("batch_per_server", f.batchPerServer);
    j.set("arrivals", arrivalsToJson(f.arrivals));
    j.set("queue_workers", f.queueWorkers);
    j.set("max_workers", f.maxWorkers);
    j.set("interference", f.interference);
    j.set("abort_prob", f.abortProb);
    j.set("queue_requests", f.queueRequests);
    j.set("queue_warmup", f.queueWarmup);
    j.set("queue_seed", f.queueSeed);
    j.set("tail_target_ms", f.tailTargetMs);
    j.set("slo_margin", f.sloMargin);
    j.set("placement_seed", f.placementSeed);
    return j;
}

FleetSpec
fleetFromJsonBlock(const Json &j)
{
    checkKeys(j,
              {"servers", "lc_per_server", "batch_per_server",
               "arrivals", "queue_workers", "max_workers",
               "interference", "abort_prob", "queue_requests",
               "queue_warmup", "queue_seed", "tail_target_ms",
               "slo_margin", "placement_seed"},
              "fleet");
    FleetSpec f;
    f.servers = u32Field(j, "servers", f.servers);
    f.lcPerServer = u32Field(j, "lc_per_server", f.lcPerServer);
    f.batchPerServer =
        u32Field(j, "batch_per_server", f.batchPerServer);
    if (const Json *v = j.find("arrivals"))
        f.arrivals = arrivalsFromJson(*v);
    f.queueWorkers = u32Field(j, "queue_workers", f.queueWorkers);
    f.maxWorkers = u32Field(j, "max_workers", f.maxWorkers);
    f.interference = numField(j, "interference", f.interference);
    f.abortProb = numField(j, "abort_prob", f.abortProb);
    f.queueRequests = u32Field(j, "queue_requests", f.queueRequests);
    f.queueWarmup = u32Field(j, "queue_warmup", f.queueWarmup);
    f.queueSeed = u64Field(j, "queue_seed", f.queueSeed);
    f.tailTargetMs = numField(j, "tail_target_ms", f.tailTargetMs);
    f.sloMargin = numField(j, "slo_margin", f.sloMargin);
    f.placementSeed = u64Field(j, "placement_seed", f.placementSeed);
    f.validate("scenario fleet");
    return f;
}

Json
reportToJson(const ReportBlock &b)
{
    Json j = Json::object();
    j.set("kind", reportKindName(b.kind));
    j.set("tag", b.tag);
    if (b.band != LoadBand::All)
        j.set("load", loadBandName(b.band));
    return j;
}

ReportBlock
reportFromJson(const Json &j)
{
    checkKeys(j, {"kind", "tag", "load"}, "report");
    ReportBlock b;
    std::string kind = strField(j, "kind", "");
    if (!tryReportKindFromName(kind, b.kind))
        fatal("scenario report: unknown kind \"%s\" (distributions, "
              "averages, per-app, ubik-interrupts, csv, json)",
              kind.c_str());
    b.tag = strField(j, "tag", "");
    if (b.tag.empty())
        fatal("scenario report: \"tag\" is required");
    std::string band = strField(j, "load", "all");
    if (!tryLoadBandFromName(band, b.band))
        fatal("scenario report: bad load band \"%s\" (all, low, "
              "high)",
              band.c_str());
    return b;
}

} // namespace

Json
scenarioToJson(const ScenarioSpec &spec)
{
    Json j = Json::object();
    j.set("name", spec.name);
    j.set("title", spec.title);
    if (!spec.notes.empty())
        j.set("notes", spec.notes);
    Json schemes = Json::array();
    for (const auto &s : spec.schemes)
        schemes.push(schemeToJson(s));
    j.set("schemes", std::move(schemes));
    j.set("source", mixSourceName(spec.source));
    if (spec.mixesPerLcCap)
        j.set("mixes_per_lc", spec.mixesPerLcCap);
    if (spec.band != LoadBand::All)
        j.set("load", loadBandName(spec.band));
    if (!spec.mixes.empty()) {
        Json mixes = Json::array();
        for (const auto &m : spec.mixes)
            mixes.push(mixToJson(m));
        j.set("mixes", std::move(mixes));
    }
    j.set("ooo", spec.ooo);
    if (spec.seeds)
        j.set("seeds", spec.seeds);
    if (!spec.profile.isConstant())
        j.set("load_profile", profileToJson(spec.profile));
    Json reports = Json::array();
    for (const auto &b : spec.reports)
        reports.push(reportToJson(b));
    j.set("reports", std::move(reports));
    if (spec.fleet.servers)
        j.set("fleet", fleetToJsonBlock(spec.fleet));
    return j;
}

ScenarioSpec
scenarioFromJson(const Json &j)
{
    checkKeys(j,
              {"name", "title", "notes", "schemes", "source",
               "mixes_per_lc", "load", "mixes", "ooo", "seeds",
               "load_profile", "reports", "fleet"},
              "spec");
    ScenarioSpec spec;
    spec.name = strField(j, "name", "");
    if (spec.name.empty())
        fatal("scenario spec: \"name\" is required");
    spec.title = strField(j, "title", spec.name);
    spec.notes = strField(j, "notes", "");
    if (const Json *v = j.find("schemes"))
        for (const Json &js : v->items())
            spec.schemes.push_back(schemeFromJson(js));
    std::string source = strField(j, "source", "standard");
    if (!tryMixSourceFromName(source, spec.source))
        fatal("scenario spec: unknown source \"%s\" (standard, "
              "cache-hungry, explicit)",
              source.c_str());
    spec.mixesPerLcCap = u32Field(j, "mixes_per_lc", 0);
    std::string band = strField(j, "load", "all");
    if (!tryLoadBandFromName(band, spec.band))
        fatal("scenario spec: bad load band \"%s\" (all, low, high)",
              band.c_str());
    if (const Json *v = j.find("mixes"))
        for (const Json &jm : v->items())
            spec.mixes.push_back(mixFromJson(jm));
    spec.ooo = boolField(j, "ooo", true);
    spec.seeds = u32Field(j, "seeds", 0);
    if (const Json *v = j.find("load_profile"))
        spec.profile = profileFromJson(*v);
    if (const Json *v = j.find("reports"))
        for (const Json &jb : v->items())
            spec.reports.push_back(reportFromJson(jb));
    if (const Json *v = j.find("fleet"))
        spec.fleet = fleetFromJsonBlock(*v);
    return spec;
}

std::string
scenarioCanonicalJson(const ScenarioSpec &spec)
{
    return scenarioToJson(spec).dump(/*pretty=*/true);
}

// ---------------------------------------------------------------------------
// Overrides
// ---------------------------------------------------------------------------

void
applyScenarioOverride(ScenarioSpec &spec, const std::string &assignment)
{
    auto eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("--set needs key=value (got '%s')", assignment.c_str());
    std::string key = assignment.substr(0, eq);
    std::string value = assignment.substr(eq + 1);

    auto parseU32 = [&]() -> std::uint32_t {
        char *end = nullptr;
        unsigned long long v = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || *end || v > 0xFFFFFFFFull)
            fatal("--set %s: '%s' is not a non-negative integer",
                  key.c_str(), value.c_str());
        return static_cast<std::uint32_t>(v);
    };

    if (key == "seeds") {
        spec.seeds = parseU32();
    } else if (key == "mixes") {
        spec.mixesPerLcCap = parseU32();
    } else if (key == "load") {
        if (!tryLoadBandFromName(value, spec.band))
            fatal("--set load: '%s' is not all, low, or high",
                  value.c_str());
    } else if (key == "ooo") {
        if (value == "1" || value == "true")
            spec.ooo = true;
        else if (value == "0" || value == "false")
            spec.ooo = false;
        else
            fatal("--set ooo: '%s' is not a boolean", value.c_str());
    } else if (key == "source") {
        if (!tryMixSourceFromName(value, spec.source))
            fatal("--set source: '%s' is not standard, cache-hungry, "
                  "or explicit",
                  value.c_str());
    } else if (key == "profile") {
        // Kind only, at the default parameters; full profiles come
        // from the spec file's "load_profile" block.
        LoadProfile p;
        if (!tryLoadProfileKindFromName(value, p.kind))
            fatal("--set profile: '%s' is not constant, diurnal, "
                  "flash-crowd, bursts, or churn",
                  value.c_str());
        p.validate("--set profile");
        spec.profile = p;
    } else if (key == "schemes") {
        // Comma-separated label filter, keeping spec order.
        std::vector<std::string> want;
        std::size_t start = 0;
        for (std::size_t i = 0; i <= value.size(); i++) {
            if (i == value.size() || value[i] == ',') {
                if (i > start)
                    want.push_back(value.substr(start, i - start));
                start = i + 1;
            }
        }
        // An empty filter (or one of only separators/whitespace)
        // would silently empty spec.schemes and run a zero-scheme
        // sweep; a repeated label is equally a typo. Both die here.
        if (want.empty())
            fatal("--set schemes: empty label filter would leave "
                  "scenario '%s' with no schemes to run",
                  spec.name.c_str());
        for (std::size_t i = 0; i < want.size(); i++)
            for (std::size_t k = i + 1; k < want.size(); k++)
                if (want[i] == want[k])
                    fatal("--set schemes: label '%s' listed twice",
                          want[i].c_str());
        std::vector<SchemeUnderTest> kept;
        for (const auto &s : spec.schemes)
            if (std::find(want.begin(), want.end(), s.label) !=
                want.end())
                kept.push_back(s);
        for (const auto &w : want) {
            bool found = false;
            for (const auto &s : spec.schemes)
                found = found || s.label == w;
            if (!found)
                fatal("--set schemes: no scheme labeled '%s' in "
                      "scenario '%s'",
                      w.c_str(), spec.name.c_str());
        }
        spec.schemes = std::move(kept);
    } else if (key == "servers") {
        // Resize the fleet stage; meaningless on a scenario without
        // one (there is no sensible default for the rest of the
        // fleet block, so refuse rather than invent one).
        if (spec.fleet.servers == 0)
            fatal("--set servers: scenario '%s' has no fleet stage",
                  spec.name.c_str());
        std::uint32_t n = parseU32();
        if (n == 0)
            fatal("--set servers: must be >= 1");
        spec.fleet.servers = n;
    } else {
        fatal("--set: unknown key '%s' (seeds, mixes, load, ooo, "
              "source, profile, schemes, servers)",
              key.c_str());
    }
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
    for (std::size_t i = 0; i < 3; i++) {
        m.batch.apps[i] =
            batch_presets::make(e.batch[i].cls, e.batch[i].variation);
        codes += batchClassCode(e.batch[i].cls);
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
              spec.name.c_str(), mixSourceName(spec.source));
    // Likewise, hand-listed mixes with a non-explicit source would
    // silently run the full standard matrix instead of the user's
    // colocations (the classic forgotten "source": "explicit").
    if (!spec.mixes.empty() && spec.source != MixSource::Explicit)
        fatal("scenario '%s': \"mixes\" are listed but the source is "
              "%s — set \"source\": \"explicit\" to run them",
              spec.name.c_str(), mixSourceName(spec.source));
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
    // Static sharding (UBIK_SHARD=i/n): keep every n-th mix. A pure
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
               ResultCache *shared, SweepAccounting *acct,
               std::FILE *progress)
{
    MixRunner runner(cfg, ooo);
    std::unique_ptr<ResultCache> owned;
    if (!shared)
        owned = ResultCache::open(cfg.cacheDir);
    ResultCache *cache = shared ? shared : owned.get();
    runner.attachCache(cache);
    ParallelSweep engine(runner, cfg.jobs);
    engine.attachCache(cache);
    std::string worker = cfg.workerId;
    if (cfg.fleet) {
        if (!cache)
            fatal("--fleet needs a shared cache: pass --cache-dir "
                  "(or UBIK_CACHE_DIR)");
        if (worker.empty())
            worker = ClaimStore::defaultOwner();
        FleetOptions opt;
        opt.workerId = worker;
        opt.leaseTtlSec = cfg.leaseTtlSec;
        engine.enableFleet(opt);
    }
    std::vector<SweepJob> jobs =
        buildSweepJobs(schemes, mixes, cfg.seeds);
    // Live progress from inside the engine (the per-scheme summary
    // lines below only appear once the whole sweep is done).
    std::size_t step = std::max<std::size_t>(1, jobs.size() / 20);
    SweepProgress last;
    std::vector<MixRunResult> results =
        engine.run(jobs, [&](const SweepProgress &p) {
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
    // `degraded=` counts fault-tolerance events (0 on a clean run),
    // and elapsed/rate give each worker's wall-clock throughput
    // (rate is computed-per-second — cache hits are free).
    std::uint64_t degraded = cache ? cache->degraded() : 0;
    double rate = last.elapsedSec > 0
                      ? last.computed / last.elapsedSec
                      : 0.0;
    if (progress)
        std::fprintf(progress,
                     "  [sweep-summary] worker=%s jobs=%zu hits=%zu "
                     "computed=%zu remote=%zu degraded=%llu "
                     "elapsed=%.2fs rate=%.2f/s\n",
                     worker.empty() ? "local" : worker.c_str(),
                     jobs.size(), last.hits, last.computed, last.remote,
                     static_cast<unsigned long long>(degraded),
                     last.elapsedSec, rate);
    if (acct) {
        acct->worker = worker.empty() ? "local" : worker;
        acct->jobs = jobs.size();
        acct->hits = last.hits;
        acct->computed = last.computed;
        acct->remote = last.remote;
        acct->degraded = degraded;
        acct->elapsedSec = last.elapsedSec;
        acct->workers = engine.workers();
    }
    if (cache && progress)
        printCacheStats(*cache, progress);

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
          case ReportKind::Csv: {
            const char *dir = std::getenv("UBIK_CSV_DIR");
            exportCsv(view, b.tag.c_str(),
                      dir && *dir ? dir : ".");
            break;
          }
          case ReportKind::Json: {
            const char *dir = std::getenv("UBIK_JSON_DIR");
            std::string path =
                std::string(dir && *dir ? dir : ".") + "/" + b.tag +
                "_results.json";
            writeResultsJson(view, spec.name, path);
            std::fprintf(stderr, "  [%s] wrote %s\n", b.tag.c_str(),
                         path.c_str());
            break;
          }
        }
    }
}

Json
scenarioResultsJson(const ScenarioSpec &spec,
                    const ScenarioResult &res, bool accounting)
{
    Json root = resultsToJson(res.sweeps, spec.name);
    if (res.hasFleet)
        root.set("fleet", fleetToJson(res.fleet));
    if (accounting) {
        const SweepAccounting &a = res.accounting;
        Json ja = Json::object();
        ja.set("worker", a.worker);
        ja.set("jobs", static_cast<std::uint64_t>(a.jobs));
        ja.set("hits", static_cast<std::uint64_t>(a.hits));
        ja.set("computed", static_cast<std::uint64_t>(a.computed));
        ja.set("remote", static_cast<std::uint64_t>(a.remote));
        ja.set("degraded", a.degraded);
        ja.set("elapsed_sec", a.elapsedSec);
        ja.set("rate_per_sec", a.elapsedSec > 0
                                   ? a.computed / a.elapsedSec
                                   : 0.0);
        ja.set("workers", a.workers);
        root.set("sweep", std::move(ja));
    }
    return root;
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
        writeJsonFile(scenarioResultsJson(spec, res, accounting),
                      results_path);
        std::fprintf(stderr, "  [%s] wrote %s\n", spec.name.c_str(),
                     results_path.c_str());
    }
    if (!spec.notes.empty())
        std::printf("\n%s\n", spec.notes.c_str());
    return 0;
}

void
printFleetStatus(const ScenarioSpec &spec,
                 const ExperimentConfig &cfg0)
{
    ExperimentConfig cfg = scenarioConfig(spec, cfg0);
    if (cfg.cacheDir.empty())
        fatal("--fleet-status needs a cache: pass --cache-dir "
              "(or UBIK_CACHE_DIR)");
    std::unique_ptr<ResultCache> cache =
        ResultCache::open(cfg.cacheDir);
    if (!cache)
        fatal("--fleet-status: cannot open cache at %s",
              cfg.cacheDir.c_str());
    std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
    std::vector<SweepJob> jobs =
        buildSweepJobs(spec.schemes, mixes, cfg.seeds);

    // Matrix fill: probe every (scheme, mix, seed) result key plus
    // the baseline keys the sweep would prewarm. Probes only — no
    // stats counted, nothing computed, nothing claimed.
    std::set<std::string> jobKeys;
    std::size_t done = 0;
    for (const SweepJob &job : jobs) {
        std::string key =
            mixResultKey(cfg, job.mix, job.sut, job.seed, spec.ooo);
        jobKeys.insert(key);
        if (cache->peekMix(key))
            done++;
    }
    std::size_t lcTotal = 0, lcDone = 0;
    std::size_t batchTotal = 0, batchDone = 0;
    std::set<std::string> seenBase;
    for (const MixSpec &mix : mixes)
        for (std::uint32_t s = 1; s <= cfg.seeds; s++) {
            std::string lk = lcBaselineKey(cfg, mix.lc.app,
                                           mix.lc.load, s, spec.ooo);
            if (seenBase.insert(lk).second) {
                lcTotal++;
                if (cache->hasLcBaseline(lk))
                    lcDone++;
            }
            for (const auto &app : mix.batch.apps) {
                std::string bk =
                    batchBaselineKey(cfg, app, s, spec.ooo);
                if (seenBase.insert(bk).second) {
                    batchTotal++;
                    if (cache->hasBatchIpc(bk))
                        batchDone++;
                }
            }
        }
    std::printf("[fleet-status] scenario=%s cache=%s\n",
                spec.name.c_str(), cfg.cacheDir.c_str());
    std::printf("[fleet-status] matrix: jobs=%zu done=%zu (%.1f%%) "
                "lc_baselines=%zu/%zu batch_baselines=%zu/%zu\n",
                jobs.size(), done,
                jobs.empty() ? 100.0 : 100.0 * done / jobs.size(),
                lcDone, lcTotal, batchDone, batchTotal);

    // Live claim leases: who is mid-computation right now. A key
    // outside this scenario's matrix counts as foreign (another
    // scenario, or another scale, sharing the cache); a lease whose
    // claimant has not written its payload yet is not counted.
    std::map<std::string, std::pair<std::size_t, std::size_t>> owners;
    std::size_t leases = 0;
    for (const ClaimStore::Lease &l : ClaimStore::leases(cfg.cacheDir)) {
        if (l.owner.empty())
            continue;
        leases++;
        auto &c = owners[l.owner];
        c.first++;
        if (jobKeys.count(l.key))
            c.second++;
    }
    std::printf("[fleet-status] claims: live=%zu workers=%zu\n",
                leases, owners.size());
    for (const auto &o : owners)
        std::printf("[fleet-status] worker=%s claims=%zu "
                    "in_matrix=%zu\n",
                    o.first.c_str(), o.second.first,
                    o.second.second);
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
