/**
 * @file
 * Seeded mutation fuzz of ubik_serve requests. Mutants of four
 * requests (a named query with "set" overrides, an inline fig9 spec,
 * "list" and "stats") go through ServeDaemon::handleRequest, the body
 * the daemon serves per connection. The mutations are bit flips, byte
 * inserts and deletes, truncation, duplicated ranges and members
 * replaced by a value of another type. Every answer must be one JSON
 * object with a boolean "ok", in valid UTF-8 (error texts echo request
 * bytes, which the writer escapes, and replaces where they are not
 * UTF-8), and afterwards the daemon must still
 * answer a clean fresh-named fig9 query with the direct run's
 * results.
 *
 * A mutant that stays a valid but different spec (a scheme's slack
 * with another digit, say) misses the cache and simulates; once
 * kMaxMissingMutants mutants of one request have, that request's
 * fuzzing ends, which bounds the test's time.
 *
 * The corpus test replays the values such mutants can reach that once
 * hung a worker (a reconfiguration interval under one cycle, billions
 * of idle-size options) or aborted the daemon (a negative deboost
 * guard); each must now be an error answer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "support/cache_test_util.h"
#include "fleet/serve.h"
#include "sim/scenario.h"

namespace ubik {
namespace {

using test::TempCacheDir;

constexpr int kMutantsPerRequest = 1500;
constexpr int kMaxMissingMutants = 6;

ExperimentConfig
fuzzCfg(const std::string &cache_dir)
{
    ExperimentConfig cfg = test::cacheTestCfg();
    cfg.scale = 64.0;
    cfg.roiRequests = 10;
    cfg.warmupRequests = 5;
    cfg.seeds = 1;
    cfg.jobs = 2;
    cfg.cacheDir = cache_dir;
    return cfg;
}

const ScenarioSpec &
fig9()
{
    return *ScenarioRegistry::instance().find("fig9");
}

/** The query for the inline fig9 spec under `name`, its Ubik scheme
 *  edited by `edit`. */
std::string
inlineFig9(const std::string &name, bool pretty,
           void (*edit)(SchemeUnderTest &) = nullptr)
{
    ScenarioSpec spec = fig9();
    spec.name = name;
    if (edit)
        for (SchemeUnderTest &s : spec.schemes)
            if (s.policy == PolicyKind::Ubik)
                edit(s);
    Json req = Json::object();
    req.set("query", "scenario");
    req.set("spec", scenarioToJson(spec));
    return req.dump(pretty);
}

/** Every node of `j` (itself included), pre-order. */
void
collectNodes(Json &j, std::vector<Json *> &out)
{
    out.push_back(&j);
    if (j.isArray())
        for (const Json &e : j.items())
            collectNodes(const_cast<Json &>(e), out);
    else if (j.isObject())
        for (const auto &m : j.members())
            collectNodes(const_cast<Json &>(m.second), out);
}

/** A value whose kind differs from `old`'s. */
Json
otherKind(const Json &old, std::mt19937_64 &rng)
{
    for (;;) {
        Json v;
        switch (rng() % 6) {
          case 0: v = Json(); break;
          case 1: v = Json(rng() % 2 == 0); break;
          case 2: v = Json(static_cast<double>(rng() % 2000) - 1000.5); break;
          case 3: v = Json("\x01wrong\"type\\"); break;
          case 4: v = Json::array().push(1); break;
          default: v = Json::object().set("k", Json()); break;
        }
        if (v.kind() != old.kind())
            return v;
    }
}

/** One seeded mutant of `base`. */
std::string
mutate(const std::string &base, std::mt19937_64 &rng)
{
    auto pick = [&](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    const unsigned op = static_cast<unsigned>(rng() % 6);
    if (op == 5) {
        // A member (or element) replaced by a value of another type.
        Json tree = Json::parseOrDie(base, "fuzz base");
        std::vector<Json *> nodes;
        collectNodes(tree, nodes);
        Json *target = nodes[1 + pick(nodes.size() - 1)];
        *target = otherKind(*target, rng);
        return tree.dump(rng() % 2 == 0);
    }
    static const char kBytes[] = "\"\\{}[],:-+.eE0123456789 \n\x01\x7f\xff";
    std::string s = base;
    for (unsigned n = 1 + rng() % 3; n-- > 0;) {
        switch (op) {
          case 0: // bit flip
            if (!s.empty())
                s[pick(s.size())] ^= static_cast<char>(1u << (rng() % 8));
            break;
          case 1: // byte insert
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                     rng() % 2 ? kBytes[pick(sizeof kBytes - 1)]
                               : static_cast<char>(rng()));
            break;
          case 2: { // delete 1-4 bytes
            const std::size_t at = pick(s.size());
            s.erase(at, 1 + pick(4));
            break;
          }
          case 3: // truncation
            s.resize(pick(s.size()));
            break;
          default: { // a range duplicated in place
            const std::size_t at = pick(s.size());
            const std::string range = s.substr(at, 1 + pick(64));
            s.insert(at, range);
            break;
          }
        }
    }
    return s;
}

/** Whether `s` is well-formed UTF-8: each sequence decodes to a code
 *  point that needs its length, is no surrogate and is at most
 *  U+10FFFF. (Json::parse takes any byte >= 0x20 in a string.) */
bool
validUtf8(const std::string &s)
{
    static constexpr std::uint32_t kLeast[] = {0, 0, 0x80, 0x800, 0x10000};
    for (std::size_t i = 0; i < s.size();) {
        const auto c = static_cast<unsigned char>(s[i]);
        const std::size_t n = c < 0x80         ? 1
                              : c >> 5 == 0x6  ? 2
                              : c >> 4 == 0xe  ? 3
                              : c >> 3 == 0x1e ? 4
                                               : 0;
        if (n == 0 || i + n > s.size())
            return false;
        std::uint32_t cp = n == 1 ? c : c & (0x7fu >> n);
        for (std::size_t k = 1; k < n; k++) {
            const auto b = static_cast<unsigned char>(s[i + k]);
            if (b >> 6 != 2)
                return false;
            cp = cp << 6 | (b & 0x3fu);
        }
        if (cp < kLeast[n] || cp > 0x10ffff ||
            (cp >= 0xd800 && cp <= 0xdfff))
            return false;
        i += n;
    }
    return true;
}

/** The answer is one JSON object in valid UTF-8 with a boolean "ok",
 *  and an error text or the payload of its query. */
::testing::AssertionResult
wellFormed(const std::string &resp, bool &ok)
{
    if (!validUtf8(resp))
        return ::testing::AssertionFailure() << "not valid UTF-8";
    Json j;
    std::string err;
    if (!Json::parse(resp, j, err))
        return ::testing::AssertionFailure() << "unparseable: " << err;
    if (!j.isObject())
        return ::testing::AssertionFailure() << "not an object";
    const Json *o = j.find("ok");
    if (!o || !o->isBool())
        return ::testing::AssertionFailure() << "no boolean ok";
    ok = o->boolean();
    if (!ok) {
        const Json *e = j.find("error");
        if (!e || !e->isString() || e->str().empty() || j.size() != 2)
            return ::testing::AssertionFailure() << "bad error answer";
        return ::testing::AssertionSuccess();
    }
    const Json *results = j.find("results");
    const Json *names = j.find("scenarios");
    const Json *stats = j.find("stats");
    if (j.size() != 2 || !((results && results->isObject()) ||
                           (names && names->isArray()) ||
                           (stats && stats->isObject())))
        return ::testing::AssertionFailure() << "bad ok answer";
    return ::testing::AssertionSuccess();
}

/** A daemon over a cache a direct fig9 run filled, shared by the
 *  suite, and that run's results. */
class ServeRequestFuzz : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        dir_ = std::make_unique<TempCacheDir>("serve_fuzz");
        reference_ = scenarioResultsJson(
                         fig9(),
                         runScenario(fig9(), fuzzCfg(dir_->path()), nullptr,
                                     nullptr),
                         false)
                         .dump(true);
    }

    static void TearDownTestSuite() { dir_.reset(); }

    static inline std::unique_ptr<TempCacheDir> dir_;
    static inline std::string reference_;
};

TEST_F(ServeRequestFuzz, CorpusOfHangsAndAbortsGetsErrorAnswers)
{
    ServeOptions opt;
    ServeDaemon daemon(opt, fuzzCfg(dir_->path()));
    const std::pair<void (*)(SchemeUnderTest &), const char *> corpus[] = {
        {[](SchemeUnderTest &s) { s.reconfigScale = 0; }, "reconfig_scale"},
        {[](SchemeUnderTest &s) { s.reconfigScale = 1e-12; },
         "reconfig_scale"},
        {[](SchemeUnderTest &s) { s.reconfigScale = -1; }, "reconfig_scale"},
        {[](SchemeUnderTest &s) { s.ubik.deboostGuard = -5; },
         "deboost guard"},
        {[](SchemeUnderTest &s) { s.ubik.idleOptions = 4294967295u; },
         "idle-size options"},
    };
    for (const auto &[edit, what] : corpus) {
        const std::string resp =
            daemon.handleRequest(inlineFig9("corpus", false, edit));
        bool ok = true;
        ASSERT_TRUE(wellFormed(resp, ok)) << resp;
        EXPECT_FALSE(ok) << resp;
        EXPECT_NE(resp.find(what), std::string::npos) << resp;
    }
    // The daemon still answers, from the cache.
    bool ok = false;
    ASSERT_TRUE(wellFormed(
        daemon.handleRequest(inlineFig9("corpus-clean", false)), ok));
    EXPECT_TRUE(ok);
}

TEST_F(ServeRequestFuzz, MutantsGetOneWellFormedAnswer)
{
    ServeOptions opt;
    ServeDaemon daemon(opt, fuzzCfg(dir_->path()));
    const std::pair<const char *, std::string> bases[] = {
        {"named", "{\"query\": \"scenario\", \"name\": \"fig9\", "
                  "\"set\": [\"schemes=Ubik,LRU\", \"load=low\"]}"},
        {"inline", inlineFig9("fuzz-fig9", /*pretty=*/true)},
        {"list", "{\"query\": \"list\"}"},
        {"stats", "{\"query\": \"stats\"}"},
    };
    std::mt19937_64 rng(0x5e7e2026);
    std::uint64_t answered_ok = 0, answered_error = 0, mutants = 0;
    for (const auto &[what, base] : bases) {
        int missing = 0, i = 0;
        const std::uint64_t ok_before = answered_ok;
        for (; i < kMutantsPerRequest; i++) {
            const std::string req = mutate(base, rng);
            const std::uint64_t misses = daemon.snapshot().cacheMisses;
            bool ok = false;
            const std::string resp = daemon.handleRequest(req);
            ASSERT_TRUE(wellFormed(resp, ok))
                << "request: " << req << "\nanswer: " << resp;
            (ok ? answered_ok : answered_error)++;
            mutants++;
            if (daemon.snapshot().cacheMisses != misses &&
                ++missing == kMaxMissingMutants)
                break;
        }
        std::printf("[fuzz] %s: %d mutants, %llu ok, %d missed the cache\n",
                    what, i,
                    static_cast<unsigned long long>(answered_ok - ok_before),
                    missing);
    }
    EXPECT_GT(answered_ok, 0u);
    EXPECT_GT(answered_error, 0u);
    const ServeStatsSnapshot s = daemon.snapshot();
    EXPECT_EQ(s.requests, mutants);
    EXPECT_EQ(s.ok + s.errors, mutants);

    // Still serving, and a clean fresh-named fig9 is the direct run's
    // answer but for its name.
    bool ok = false;
    ASSERT_TRUE(wellFormed(daemon.handleRequest("{\"query\": \"list\"}"), ok));
    EXPECT_TRUE(ok);
    Json answer =
        Json::parseOrDie(daemon.handleRequest(inlineFig9("fuzz-clean", false)),
                         "clean answer");
    ASSERT_TRUE(answer.find("ok")->boolean());
    Json results = *answer.find("results");
    EXPECT_EQ(results.find("scenario")->str(), "fuzz-clean");
    results.set("scenario", "fig9");
    EXPECT_EQ(results.dump(true), reference_);
}

} // namespace
} // namespace ubik
