/**
 * @file
 * Tests for the declarative scenario API: lossless JSON round-trips
 * for every registered built-in spec, strict spec parsing (unknown
 * keys and bad values die loudly), override semantics and
 * precedence, mix expansion against the legacy constructors, and
 * kind-name round-trips through the shared maps.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/log.h"
#include "common/rng.h"
#include "sim/scenario.h"
#include "sim/scenario_gen.h"

namespace ubik {
namespace {

ExperimentConfig
tinyCfg()
{
    ExperimentConfig cfg;
    cfg.scale = 16.0;
    cfg.roiRequests = 10;
    cfg.warmupRequests = 2;
    cfg.seeds = 2;
    cfg.mixesPerLc = 2;
    cfg.jobs = 1;
    return cfg;
}

/** FNV-1a of a spec's canonical JSON, folded into `h`. */
std::uint64_t
canonicalHash(const ScenarioSpec &spec, std::uint64_t h = kFnvOffsetBasis)
{
    const std::string text = scenarioCanonicalJson(spec);
    return fnv1a64Bytes(
        h, reinterpret_cast<const std::uint8_t *>(text.data()),
        text.size());
}

/** Nodes of `j` in pre-order: the targets a mutation draws from. */
std::size_t
nodeCount(const Json &j)
{
    std::size_t n = 1;
    if (j.isObject())
        for (const auto &m : j.members())
            n += nodeCount(m.second);
    else if (j.isArray())
        for (const Json &e : j.items())
            n += nodeCount(e);
    return n;
}

/** One mutation of a single node: a number goes out of range or
 *  fractional, any value can take the wrong type, and an object can
 *  lose a member or gain an unknown one. */
Json
mutateNode(const Json &j, Rng &rng)
{
    static const double kBadNumbers[] = {-1.0, 1.5, 1e20, 4294967296.0,
                                         9007199254740993.0};
    const std::uint64_t r = rng.next();
    if (j.isNumber() && r % 5 != 0)
        return Json(kBadNumbers[(r / 5) % std::size(kBadNumbers)]);
    if (j.isObject() && j.size() > 0 && r % 3 == 0) {
        const std::size_t drop = (r / 3) % j.size();
        Json out = Json::object();
        for (std::size_t i = 0; i < j.size(); i++)
            if (i != drop)
                out.set(j.members()[i].first, j.members()[i].second);
        return out;
    }
    if (j.isObject() && r % 3 == 1) {
        Json out = j;
        out.set("bogus_key", 1);
        return out;
    }
    if (j.isString())
        return (r / 3) % 2 ? Json(7) : Json(true);
    return j.isNumber() || j.isBool() ? Json("7") : Json(3);
}

/** `j` with its pre-order node number `target` mutated. */
Json
mutate(const Json &j, std::ptrdiff_t &target, Rng &rng)
{
    if (target-- == 0)
        return mutateNode(j, rng);
    if (j.isObject()) {
        Json out = Json::object();
        for (const auto &m : j.members())
            out.set(m.first, mutate(m.second, target, rng));
        return out;
    }
    if (j.isArray()) {
        Json out = Json::array();
        for (const Json &e : j.items())
            out.push(mutate(e, target, rng));
        return out;
    }
    return j;
}

TEST(ScenarioRegistry, NamesAreUniqueAndFindable)
{
    const auto &all = ScenarioRegistry::instance().all();
    ASSERT_GE(all.size(), 11u);
    std::set<std::string> names;
    for (const auto &s : all) {
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate scenario name " << s.name;
        EXPECT_FALSE(s.schemes.empty()) << s.name;
        EXPECT_FALSE(s.reports.empty()) << s.name;
        EXPECT_EQ(ScenarioRegistry::instance().find(s.name), &s);
    }
    EXPECT_EQ(ScenarioRegistry::instance().find("nope"), nullptr);
}

TEST(ScenarioJson, EveryBuiltinRoundTripsLosslessly)
{
    for (const auto &s : ScenarioRegistry::instance().all()) {
        Json j1 = scenarioToJson(s);
        ScenarioSpec back = scenarioFromJson(j1);
        Json j2 = scenarioToJson(back);
        EXPECT_EQ(j1, j2) << "spec " << s.name
                          << " did not round-trip";
        // Canonical: the serialized form is a fixed point.
        EXPECT_EQ(scenarioCanonicalJson(s),
                  scenarioCanonicalJson(back))
            << "spec " << s.name;
    }
}

TEST(ScenarioJson, RoundTripSurvivesTextSerialization)
{
    // Through actual bytes, not just the Json tree — what a spec
    // file on disk sees, exercising double formatting end to end.
    for (const auto &s : ScenarioRegistry::instance().all()) {
        std::string text = scenarioCanonicalJson(s);
        Json parsed = Json::parseOrDie(text, "round-trip");
        EXPECT_EQ(scenarioToJson(scenarioFromJson(parsed)), parsed)
            << "spec " << s.name;
    }
}

TEST(ScenarioJson, CanonicalBytesArePinned)
{
    // Spec files on disk and ubik_serve's memo keys are these bytes,
    // so a codec change that moves any of them must show up here.
    // Last moved when the settings with one value in use became
    // constants (ubik "slack_gain"/"duty_alpha", "lc_mem_share" and
    // nine fleet keys): those lines are the only bytes removed.
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"fig9", 0x380d69d6da1a071full},
        {"fig10", 0xb7106ad870b7b217ull},
        {"fig11", 0x1195ec3353f98843ull},
        {"fig12", 0xa99c815f4ff73933ull},
        {"fig13", 0xa3d754f934b84ad2ull},
        {"flash-crowd", 0xe9d8c11ce72af9f2ull},
        {"diurnal", 0x055b1824747f2fe5ull},
        {"bursts", 0x4bf8c90f4c33c6e0ull},
        {"churn", 0xd62c0c143e02f981ull},
        {"ablation-deboost", 0xf25ac4d2e6b653faull},
        {"ablation-feedback", 0x1fde137fb7bab27aull},
        {"ablation-params-idle", 0x40f8931eaa89c5f0ull},
        {"ablation-params-guard", 0x3d00ebf690679f87ull},
        {"ablation-params-interval", 0xa0aa7e7286f2e2f8ull},
        {"ablation-bandwidth", 0x3a02f98f2fcc55efull},
        {"fleet-utilization", 0x0524b2f5cd2ea2f9ull},
        {"fleet-colocation", 0x4aebb8fe0729d4cdull},
        {"fleet-sizing", 0x52d7d31237369e76ull},
        {"fleet-bandwidth", 0x1a70d8f097ed93d4ull},
    };
    const auto &all = ScenarioRegistry::instance().all();
    ASSERT_EQ(all.size(), std::size(pinned));
    for (std::size_t i = 0; i < all.size(); i++) {
        EXPECT_EQ(all[i].name, pinned[i].first);
        EXPECT_EQ(canonicalHash(all[i]), pinned[i].second)
            << all[i].name;
    }
    std::uint64_t gen = kFnvOffsetBasis;
    for (std::uint64_t seed = 1; seed <= 300; seed++)
        gen = canonicalHash(generateScenario(seed), gen);
    EXPECT_EQ(gen, 0x4265a217c52f992bull);
}

TEST(ScenarioJsonFuzz, MutatedSpecsAreFatalOrCanonical)
{
    // Seeded single-node mutations of every registered spec. Each
    // must either be rejected through fatal() or parse to a spec
    // whose canonical form is a fixed point of parse -> canonical;
    // anything else (a panic, an abort, a sanitizer report) fails.
    FatalTrap trap;
    Rng rng(18);
    std::size_t rejected = 0, accepted = 0;
    for (const ScenarioSpec &spec : ScenarioRegistry::instance().all()) {
        const Json base = scenarioToJson(spec);
        const std::size_t nodes = nodeCount(base);
        for (int round = 0; round < 64; round++) {
            std::ptrdiff_t target =
                static_cast<std::ptrdiff_t>(rng.next() % nodes);
            const Json input = mutate(base, target, rng);
            std::string canonical;
            try {
                canonical = scenarioCanonicalJson(scenarioFromJson(input));
            } catch (const FatalError &) {
                rejected++;
                continue;
            }
            accepted++;
            EXPECT_EQ(scenarioCanonicalJson(scenarioFromJson(
                          Json::parseOrDie(canonical, "fuzz"))),
                      canonical)
                << input.dump();
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
}

TEST(ScenarioJson, DefaultsFillMissingFields)
{
    ScenarioSpec s = scenarioFromJson(Json::parseOrDie(
        "{\"name\": \"mini\", \"schemes\": [{\"label\": \"X\"}]}",
        "test"));
    EXPECT_EQ(s.name, "mini");
    EXPECT_EQ(s.title, "mini"); // title defaults to the name
    EXPECT_EQ(s.source, MixSource::Standard);
    EXPECT_EQ(s.band, LoadBand::All);
    EXPECT_TRUE(s.ooo);
    EXPECT_EQ(s.seeds, 0u);
    ASSERT_EQ(s.schemes.size(), 1u);
    // Scheme fields default like a default-constructed SUT.
    SchemeUnderTest dflt;
    EXPECT_EQ(s.schemes[0].policy, dflt.policy);
    EXPECT_EQ(s.schemes[0].array, dflt.array);
    EXPECT_DOUBLE_EQ(s.schemes[0].slack, dflt.slack);
    EXPECT_EQ(s.schemes[0].ubik.idleOptions, dflt.ubik.idleOptions);
}

TEST(ScenarioJsonDeath, UnknownKeysAndBadValuesAreFatal)
{
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"sedes\": 3}", "t")),
                ::testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"schemes\": "
                    "[{\"label\": \"a\", \"policy\": \"Ubbik\"}]}",
                    "t")),
                ::testing::ExitedWithCode(1), "unknown policy");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"load\": \"medium\"}", "t")),
                ::testing::ExitedWithCode(1), "unknown load band");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"seeds\": -1}", "t")),
                ::testing::ExitedWithCode(1), "non-negative");
    // The u64 seed stops at 2^53 - 1, the integers a JSON number
    // holds exactly: beyond it a seed would silently change value.
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"load_profile\": "
                    "{\"kind\": \"bursts\", \"burst_seed\": 3e19}}",
                    "t")),
                ::testing::ExitedWithCode(1),
                "burst_seed: must be a non-negative integer <= "
                "9007199254740991");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"load_profile\": "
                    "{\"kind\": \"bursts\", "
                    "\"burst_seed\": 9007199254740993}}",
                    "t")),
                ::testing::ExitedWithCode(1),
                "burst_seed: must be a non-negative integer");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"schemes\": []}", "t")),
                ::testing::ExitedWithCode(1), "required");
    // A scheme's one slack is schemes[].slack, and the memory base
    // latency is the core model's: neither has a second key.
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"schemes\": [{\"label\": "
                    "\"a\", \"ubik\": {\"slack\": 0.1}}]}",
                    "t")),
                ::testing::ExitedWithCode(1),
                "schemes.ubik: unknown key \"slack\"");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"schemes\": [{\"label\": "
                    "\"a\", \"mem_params\": {\"base_latency\": "
                    "300}}]}",
                    "t")),
                ::testing::ExitedWithCode(1),
                "schemes.mem_params: unknown key \"base_latency\"");
    // Settings with one value in use are constants of the code, and
    // the two file-writing report kinds repeated --results and the
    // averages block's CSV: a spec that names one is fatal, like any
    // other unknown key or kind.
    const std::pair<const char *, const char *> removed[] = {
        {"\"schemes\": [{\"label\": \"a\", \"ubik\": "
         "{\"slack_gain\": 0.1}}]",
         "schemes.ubik: unknown key \"slack_gain\""},
        {"\"schemes\": [{\"label\": \"a\", \"ubik\": "
         "{\"duty_alpha\": 0.3}}]",
         "schemes.ubik: unknown key \"duty_alpha\""},
        {"\"schemes\": [{\"label\": \"a\", \"lc_mem_share\": 0.5}]",
         "schemes: unknown key \"lc_mem_share\""},
        {"\"fleet\": {\"lc_per_server\": 4}",
         "fleet: unknown key \"lc_per_server\""},
        {"\"fleet\": {\"batch_per_server\": 3}",
         "fleet: unknown key \"batch_per_server\""},
        {"\"fleet\": {\"max_workers\": 8}",
         "fleet: unknown key \"max_workers\""},
        {"\"fleet\": {\"queue_requests\": 3000}",
         "fleet: unknown key \"queue_requests\""},
        {"\"fleet\": {\"queue_warmup\": 300}",
         "fleet: unknown key \"queue_warmup\""},
        {"\"fleet\": {\"queue_seed\": 2024}",
         "fleet: unknown key \"queue_seed\""},
        {"\"fleet\": {\"slo_margin\": 0.05}",
         "fleet: unknown key \"slo_margin\""},
        {"\"fleet\": {\"placement_seed\": 1}",
         "fleet: unknown key \"placement_seed\""},
        {"\"fleet\": {\"arrivals\": {\"seed\": 1}}",
         "fleet.arrivals: unknown key \"seed\""},
        {"\"reports\": [{\"kind\": \"csv\", \"tag\": \"x\"}]",
         "unknown report kind 'csv'"},
        {"\"reports\": [{\"kind\": \"json\", \"tag\": \"x\"}]",
         "unknown report kind 'json'"},
    };
    for (const auto &[member, message] : removed)
        EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                        std::string("{\"name\": \"x\", ") + member + "}",
                        "t")),
                    ::testing::ExitedWithCode(1), message)
            << member;
    // Ill-typed field: caught by the Json accessor.
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"ooo\": \"yes\"}", "t")),
                ::testing::ExitedWithCode(1), "expected bool");
}

TEST(ScenarioOverrides, ApplyAndLaterWins)
{
    ScenarioSpec s = *ScenarioRegistry::instance().find("fig9");
    ASSERT_EQ(s.seeds, 0u);

    // Spec value < first --set < later --set.
    applyScenarioOverrides(
        s, {"seeds=3", "mixes=2", "seeds=5", "load=low", "ooo=0"});
    EXPECT_EQ(s.seeds, 5u);
    EXPECT_EQ(s.mixesPerLcCap, 2u);
    EXPECT_EQ(s.band, LoadBand::Low);
    EXPECT_FALSE(s.ooo);

    // Scheme label filter keeps spec order and drops the rest.
    applyScenarioOverride(s, "schemes=Ubik,LRU");
    ASSERT_EQ(s.schemes.size(), 2u);
    EXPECT_EQ(s.schemes[0].label, "LRU"); // spec order, not ask order
    EXPECT_EQ(s.schemes[1].label, "Ubik");

    // The seeds override beats UBIK_SEEDS-derived config.
    ExperimentConfig cfg = tinyCfg();
    EXPECT_EQ(scenarioConfig(s, cfg).seeds, 5u);
}

TEST(ScenarioOverridesDeath, BadKeysAndValuesAreFatal)
{
    ScenarioSpec s = *ScenarioRegistry::instance().find("fig9");
    EXPECT_EXIT(applyScenarioOverride(s, "bogus=1"),
                ::testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(applyScenarioOverride(s, "seeds=abc"),
                ::testing::ExitedWithCode(1), "not a non-negative");
    // The integer grammar of UBIK_SEEDS: no sign and no space, so
    // "-0" cannot reset seeds to "use UBIK_SEEDS".
    EXPECT_EXIT(applyScenarioOverride(s, "seeds=+4"),
                ::testing::ExitedWithCode(1), "not a non-negative");
    EXPECT_EXIT(applyScenarioOverride(s, "seeds= 4"),
                ::testing::ExitedWithCode(1), "not a non-negative");
    EXPECT_EXIT(applyScenarioOverride(s, "seeds=-0"),
                ::testing::ExitedWithCode(1), "not a non-negative");
    EXPECT_EXIT(applyScenarioOverride(s, "no-equals"),
                ::testing::ExitedWithCode(1), "key=value");
    EXPECT_EXIT(applyScenarioOverride(s, "schemes=NoSuchLabel"),
                ::testing::ExitedWithCode(1), "no scheme labeled");
}

TEST(ScenarioOverridesDeath, DegenerateSchemesFiltersAreFatal)
{
    // "--set schemes=" used to silently empty the scheme table and
    // run a zero-scheme sweep that "passed" with no output.
    ScenarioSpec s = *ScenarioRegistry::instance().find("fig9");
    EXPECT_EXIT(applyScenarioOverride(s, "schemes="),
                ::testing::ExitedWithCode(1),
                "no schemes to run");
    EXPECT_EXIT(applyScenarioOverride(s, "schemes=,,"),
                ::testing::ExitedWithCode(1),
                "no schemes to run");
    // A duplicate label is a typo for a different label, not a way
    // to run a scheme twice.
    EXPECT_EXIT(applyScenarioOverride(s, "schemes=Ubik,Ubik"),
                ::testing::ExitedWithCode(1), "listed twice");
}

TEST(ScenarioOverrides, ProfileOverrideSetsKindWithDefaults)
{
    ScenarioSpec s = *ScenarioRegistry::instance().find("fig9");
    ASSERT_TRUE(s.profile.isConstant());

    applyScenarioOverride(s, "profile=flash-crowd");
    EXPECT_EQ(s.profile.kind, LoadProfileKind::FlashCrowd);
    LoadProfile dflt;
    dflt.kind = LoadProfileKind::FlashCrowd;
    EXPECT_EQ(s.profile, dflt); // default window parameters

    // Later wins, and constant turns dynamics back off.
    applyScenarioOverride(s, "profile=constant");
    EXPECT_TRUE(s.profile.isConstant());

    EXPECT_EXIT(applyScenarioOverride(s, "profile=tsunami"),
                ::testing::ExitedWithCode(1), "profile");
}

TEST(ScenarioJson, LoadProfileRoundTripsAndStampsMixes)
{
    // The registered dynamic scenarios carry non-constant profiles;
    // those must survive the JSON round-trip and land on every
    // expanded mix's LC config (the result-cache key path).
    ExperimentConfig cfg = tinyCfg();
    for (const char *name :
         {"flash-crowd", "diurnal", "bursts", "churn"}) {
        const ScenarioSpec *s = ScenarioRegistry::instance().find(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_FALSE(s->profile.isConstant()) << name;

        ScenarioSpec back = scenarioFromJson(scenarioToJson(*s));
        EXPECT_EQ(back.profile, s->profile) << name;
        EXPECT_EQ(back.profile.canonical(), s->profile.canonical());

        for (const MixSpec &m : buildScenarioMixes(*s, cfg))
            EXPECT_EQ(m.lc.profile, s->profile) << name;
    }
    // Constant scenarios omit the block entirely (schema stability:
    // old spec files keep parsing byte-identically).
    const ScenarioSpec *fig9 = ScenarioRegistry::instance().find("fig9");
    EXPECT_EQ(scenarioToJson(*fig9).find("load_profile"), nullptr);
}

TEST(ScenarioJsonDeath, BadLoadProfileBlocksAreFatal)
{
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"schemes\": [{\"label\": "
                    "\"a\"}], \"load_profile\": {\"kind\": "
                    "\"tsunami\"}}",
                    "t")),
                ::testing::ExitedWithCode(1), "unknown load profile kind");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"schemes\": [{\"label\": "
                    "\"a\"}], \"load_profile\": {\"kind\": "
                    "\"flash-crowd\", \"multiplier\": 0.5}}",
                    "t")),
                ::testing::ExitedWithCode(1), "multiplier");
    EXPECT_EXIT(scenarioFromJson(Json::parseOrDie(
                    "{\"name\": \"x\", \"schemes\": [{\"label\": "
                    "\"a\"}], \"load_profile\": {\"kind\": "
                    "\"diurnal\", \"bursty\": 1}}",
                    "t")),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(ScenarioMixes, StandardSourceMatchesLegacyConstructors)
{
    ExperimentConfig cfg = tinyCfg();
    const ScenarioSpec &fig9 =
        *ScenarioRegistry::instance().find("fig9");
    std::vector<MixSpec> got = buildScenarioMixes(fig9, cfg);
    std::vector<MixSpec> want =
        buildMixes(2, /*seed=*/1, cfg.mixesPerLc);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_DOUBLE_EQ(got[i].lc.load, want[i].lc.load);
        EXPECT_EQ(got[i].batch.name, want[i].batch.name);
    }

    // The per-LC cap composes with UBIK_MIXES as min(), like the
    // legacy benches' min(cfg.mixesPerLc, N).
    ScenarioSpec capped = fig9;
    capped.mixesPerLcCap = 1;
    EXPECT_EQ(buildScenarioMixes(capped, cfg).size(),
              buildMixes(2, 1, 1).size());
    capped.mixesPerLcCap = 99; // larger than UBIK_MIXES: no effect
    EXPECT_EQ(buildScenarioMixes(capped, cfg).size(), got.size());
}

TEST(ScenarioMixesDeath, PerLcCapRejectedForNonStandardSources)
{
    // A capped cache-hungry/explicit scenario would silently run the
    // full sweep; it must die instead.
    ExperimentConfig cfg = tinyCfg();
    ScenarioSpec s =
        *ScenarioRegistry::instance().find("ablation-deboost");
    applyScenarioOverride(s, "mixes=1");
    EXPECT_EXIT(buildScenarioMixes(s, cfg),
                ::testing::ExitedWithCode(1),
                "mixes_per_lc only applies");
}

TEST(ScenarioMixesDeath, ListedMixesRejectedForNonExplicitSources)
{
    // The classic forgotten "source": "explicit" — hand-listed mixes
    // must not silently give way to the standard matrix.
    ExperimentConfig cfg = tinyCfg();
    ScenarioSpec s =
        *ScenarioRegistry::instance().find("ablation-bandwidth");
    applyScenarioOverride(s, "source=standard");
    EXPECT_EXIT(buildScenarioMixes(s, cfg),
                ::testing::ExitedWithCode(1),
                "set .source.. .explicit. to run them");
}

TEST(ScenarioMixes, ExplicitBandFilterSkipsExcludedMixes)
{
    ExperimentConfig cfg = tinyCfg();
    ScenarioSpec s =
        *ScenarioRegistry::instance().find("ablation-bandwidth");
    s.band = LoadBand::High;
    std::vector<MixSpec> mixes = buildScenarioMixes(s, cfg);
    ASSERT_EQ(mixes.size(), 6u); // half of the 12 explicit mixes
    for (const MixSpec &m : mixes)
        EXPECT_FALSE(isLowLoad(m.lc.load)) << m.name;
}

TEST(ScenarioMixes, BandFilterUsesStructuredLoadMetadata)
{
    ExperimentConfig cfg = tinyCfg();
    ScenarioSpec s = *ScenarioRegistry::instance().find("fig9");
    s.band = LoadBand::Low;
    for (const MixSpec &m : buildScenarioMixes(s, cfg)) {
        EXPECT_TRUE(isLowLoad(m.lc.load)) << m.name;
        EXPECT_NE(m.name.find("-lo/"), std::string::npos) << m.name;
    }
    s.band = LoadBand::High;
    for (const MixSpec &m : buildScenarioMixes(s, cfg))
        EXPECT_FALSE(isLowLoad(m.lc.load)) << m.name;
}

TEST(ScenarioMixes, ExplicitMixesExpandThroughPresets)
{
    ExperimentConfig cfg = tinyCfg();
    const ScenarioSpec &bw =
        *ScenarioRegistry::instance().find("ablation-bandwidth");
    std::vector<MixSpec> mixes = buildScenarioMixes(bw, cfg);
    ASSERT_EQ(mixes.size(), 12u);
    // First mix: moses at 20% load, three streaming apps — exactly
    // what the legacy ablation_bandwidth loops built.
    EXPECT_EQ(mixes[0].name, "moses-lo/sss-0");
    EXPECT_EQ(mixes[0].lc.app.name, lc_presets::moses().name);
    EXPECT_DOUBLE_EQ(mixes[0].lc.load, 0.2);
    EXPECT_EQ(mixes[0].batch.name, "sss-0");
    for (int i = 0; i < 3; i++)
        EXPECT_EQ(mixes[0].batch.apps[static_cast<size_t>(i)].cls,
                  BatchClass::Streaming);
    EXPECT_EQ(
        mixes[0].batch.apps[1].name,
        batch_presets::make(BatchClass::Streaming, 1).name);
    // Second mix swaps the third app for friendly.
    EXPECT_EQ(mixes[1].name, "moses-lo/ssf-0");
    EXPECT_EQ(mixes[1].batch.apps[2].cls, BatchClass::Friendly);
}

TEST(ScenarioKindNames, RoundTripThroughSharedMaps)
{
    for (PolicyKind k :
         {PolicyKind::Lru, PolicyKind::Ucp, PolicyKind::StaticLc,
          PolicyKind::OnOff, PolicyKind::Ubik, PolicyKind::Feedback})
        EXPECT_EQ(enumFromName<PolicyKind>(enumName(k)), k);
    for (ArrayKind k :
         {ArrayKind::Z4_52, ArrayKind::SA16, ArrayKind::SA64})
        EXPECT_EQ(enumFromName<ArrayKind>(enumName(k)), k);
    EXPECT_EQ(enumFromName<ArrayKind>("zcache"), ArrayKind::Z4_52);
    for (SchemeKind k : {SchemeKind::SharedLru, SchemeKind::Vantage,
                         SchemeKind::WayPart})
        EXPECT_EQ(enumFromName<SchemeKind>(enumName(k)), k);
    EXPECT_EQ(schemeKindFromNameOrAuto("auto", PolicyKind::Lru),
              SchemeKind::SharedLru);
    EXPECT_EQ(schemeKindFromNameOrAuto("auto", PolicyKind::Ubik),
              SchemeKind::Vantage);
    for (MemKind k : {MemKind::Fixed, MemKind::Contended,
                      MemKind::Partitioned})
        EXPECT_EQ(enumFromName<MemKind>(enumName(k)), k);

    PolicyKind p;
    EXPECT_FALSE(tryEnumFromName("nope", p));
    BatchClass c;
    EXPECT_TRUE(tryEnumFromName("t", c));
    EXPECT_EQ(c, BatchClass::Fitting);
    EXPECT_FALSE(tryEnumFromName("x", c));
}

TEST(ScenarioKindNamesDeath, UnknownNamesAreFatal)
{
    EXPECT_EXIT(enumFromName<PolicyKind>("Ubikk"),
                ::testing::ExitedWithCode(1), "unknown policy");
    EXPECT_EXIT(enumFromName<ArrayKind>("Z8"),
                ::testing::ExitedWithCode(1), "unknown array");
    EXPECT_EXIT(enumFromName<MemKind>("infinite"),
                ::testing::ExitedWithCode(1), "unknown memory model");
}

} // namespace
} // namespace ubik
