#include "common/failpoint.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/log.h"
#include "common/parse_num.h"
#include "common/rng.h"

namespace ubik {

namespace failpoint_detail {
std::atomic<int> g_state{0};
} // namespace failpoint_detail

namespace {

using failpoint_detail::g_state;

/** Errno spellings the schedule grammar accepts by name. */
const struct
{
    const char *name;
    int value;
} kErrnoNames[] = {
    {"EIO", EIO},       {"ENOSPC", ENOSPC}, {"ENOENT", ENOENT},
    {"EACCES", EACCES}, {"EPERM", EPERM},   {"EROFS", EROFS},
    {"EMFILE", EMFILE}, {"ENFILE", ENFILE}, {"EDQUOT", EDQUOT},
    {"EFBIG", EFBIG},   {"EAGAIN", EAGAIN}, {"EINTR", EINTR},
    {"EPIPE", EPIPE},   {"ECONNRESET", ECONNRESET},
    {"ECONNABORTED", ECONNABORTED},
};

/**
 * Every failpoint site compiled into the binary: the only names a
 * schedule may arm. `random:<seed>` draws from the fleet-fabric
 * sites, whose failures the system degrades through gracefully. The
 * trace sites are never drawn — their contract is fail-fast with a
 * precise message, so random schedules would just kill runs.
 */
const struct
{
    const char *site;
    bool random;            ///< drawn by random:<seed> schedules
    const char *actions[3]; ///< candidate random action templates
} kSites[] = {
    {"cache.open", true, {"err:EIO", "err:EACCES", nullptr}},
    {"cache.append", true, {"short_write:%u", "err:EIO", "torn:%u"}},
    {"cache.fsync", true, {"err:EIO", nullptr, nullptr}},
    {"cache.refresh", true, {"err:EIO", nullptr, nullptr}},
    {"claim.create", true, {"err:EIO", "err:EACCES", nullptr}},
    {"claim.heartbeat", true, {"err:EIO", "err:ENOENT", nullptr}},
    {"claim.release", true, {"err:EIO", nullptr, nullptr}},
    {"claim.break", true, {"err:EIO", nullptr, nullptr}},
    {"serve.accept", true, {"err:EMFILE", "err:ECONNABORTED", nullptr}},
    {"serve.read", true, {"err:EIO", "err:ECONNRESET", nullptr}},
    {"serve.write", true, {"err:EPIPE", "short_write:%u", nullptr}},
    {"trace.write", false, {nullptr, nullptr, nullptr}},
    {"trace.read", false, {nullptr, nullptr, nullptr}},
    {"trace.checksum", false, {nullptr, nullptr, nullptr}},
};

bool
knownSite(const std::string &site)
{
    for (const auto &c : kSites)
        if (site == c.site)
            return true;
    return false;
}

std::string
errnoName(int err)
{
    for (const auto &e : kErrnoNames)
        if (e.value == err)
            return e.name;
    return std::to_string(err);
}

struct Trigger
{
    enum class Kind
    {
        Nth,    ///< exactly the n-th evaluation
        From,   ///< the n-th and every later evaluation
        Every,  ///< every evaluation
        Chance, ///< probability per evaluation, seeded
    };
    Kind kind = Kind::Nth;
    std::uint64_t n = 1;
    double p = 0;
    std::uint64_t seed = 1;
};

struct SiteRule
{
    FailpointHit::Kind action = FailpointHit::Kind::Err;
    int err = EIO;
    std::uint64_t arg = 0;
    double hangSec = 0;
    Trigger trig;

    Rng rng{1};           ///< Chance draws (seeded per entry)
    std::uint64_t evals = 0;
    std::uint64_t fires = 0;
};

struct Registry
{
    std::mutex mu;
    std::map<std::string, SiteRule> sites;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::uint64_t
fnvString(const std::string &s)
{
    return fnv1a64Bytes(
        kFnvOffsetBasis,
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); i++) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

int
parseErrno(const std::string &entry, const std::string &tok)
{
    for (const auto &e : kErrnoNames)
        if (tok == e.name)
            return e.value;
    std::uint64_t v;
    if (parseU64Strict(tok.c_str(), 4096, v) && v > 0)
        return static_cast<int>(v);
    fatal("failpoint '%s': unknown errno '%s' (EIO, ENOSPC, ENOENT, "
          "... or a number)",
          entry.c_str(), tok.c_str());
}

double
parseFraction(const std::string &entry, const std::string &tok)
{
    if (tok.empty())
        fatal("failpoint '%s': empty probability", entry.c_str());
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(tok.c_str(), &end);
    if (errno || end != tok.c_str() + tok.size() || !(v >= 0) ||
        !(v <= 1))
        fatal("failpoint '%s': probability '%s' not in [0, 1]",
              entry.c_str(), tok.c_str());
    return v;
}

/** Parse `site=action@trigger[,seedK]`; fatal on any malformation. */
void
parseEntry(const std::string &entry, std::string &site, SiteRule &rule)
{
    std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("failpoint '%s': expected <site>=<action>@<trigger>",
              entry.c_str());
    site = entry.substr(0, eq);
    if (!knownSite(site)) {
        // A misspelled site would arm nothing, and a chaos gate would
        // pass without injecting a single fault.
        std::string known;
        for (const auto &c : kSites)
            known += std::string(known.empty() ? "" : ", ") + c.site;
        fatal("failpoint '%s': unknown site '%s' (%s)", entry.c_str(),
              site.c_str(), known.c_str());
    }
    std::string rest = entry.substr(eq + 1);

    std::size_t at = rest.rfind('@');
    if (at == std::string::npos)
        fatal("failpoint '%s': missing @<trigger>", entry.c_str());
    std::string actionTok = rest.substr(0, at);
    std::string trigTok = rest.substr(at + 1);

    // Optional ",seedK" suffix on the trigger.
    std::size_t comma = trigTok.find(',');
    if (comma != std::string::npos) {
        std::string seedTok = trigTok.substr(comma + 1);
        trigTok = trigTok.substr(0, comma);
        if (seedTok.compare(0, 4, "seed") != 0 ||
            !parseU64Strict(seedTok.c_str() + 4, ~0ull,
                            rule.trig.seed))
            fatal("failpoint '%s': expected ',seed<n>' after the "
                  "trigger, got ',%s'",
                  entry.c_str(), seedTok.c_str());
    }

    // Action, with its optional ':' argument.
    std::string arg;
    std::size_t colon = actionTok.find(':');
    if (colon != std::string::npos) {
        arg = actionTok.substr(colon + 1);
        actionTok = actionTok.substr(0, colon);
    }
    if (actionTok == "err") {
        rule.action = FailpointHit::Kind::Err;
        rule.err = arg.empty() ? EIO : parseErrno(entry, arg);
    } else if (actionTok == "short_write" || actionTok == "torn") {
        rule.action = actionTok == "torn" ? FailpointHit::Kind::Torn
                                          : FailpointHit::Kind::ShortWrite;
        rule.arg = actionTok == "torn" ? 0 : 1;
        if (!arg.empty() &&
            !parseU64Strict(arg.c_str(), ~0ull, rule.arg))
            fatal("failpoint '%s': bad byte count '%s'", entry.c_str(),
                  arg.c_str());
    } else if (actionTok == "hang") {
        rule.action = FailpointHit::Kind::Hang;
        if (arg.empty() || arg.back() != 's')
            fatal("failpoint '%s': hang needs a duration like "
                  "'hang:2s'",
                  entry.c_str());
        arg.pop_back();
        char *end = nullptr;
        errno = 0;
        rule.hangSec = std::strtod(arg.c_str(), &end);
        if (errno || end != arg.c_str() + arg.size() ||
            !(rule.hangSec >= 0) || rule.hangSec > 600)
            fatal("failpoint '%s': bad hang duration", entry.c_str());
    } else {
        fatal("failpoint '%s': unknown action '%s' (err, short_write, "
              "torn, hang)",
              entry.c_str(), actionTok.c_str());
    }

    // Trigger.
    if (trigTok.empty())
        fatal("failpoint '%s': empty trigger", entry.c_str());
    if (trigTok == "*") {
        rule.trig.kind = Trigger::Kind::Every;
    } else if (trigTok[0] == 'p') {
        rule.trig.kind = Trigger::Kind::Chance;
        rule.trig.p = parseFraction(entry, trigTok.substr(1));
    } else if (trigTok.back() == '+') {
        rule.trig.kind = Trigger::Kind::From;
        if (!parseU64Strict(
                trigTok.substr(0, trigTok.size() - 1).c_str(), ~0ull,
                rule.trig.n) ||
            rule.trig.n == 0)
            fatal("failpoint '%s': bad trigger '%s'", entry.c_str(),
                  trigTok.c_str());
    } else {
        rule.trig.kind = Trigger::Kind::Nth;
        if (!parseU64Strict(trigTok.c_str(), ~0ull, rule.trig.n) ||
            rule.trig.n == 0)
            fatal("failpoint '%s': bad trigger '%s' (n, n+, *, or "
                  "p<frac>)",
                  entry.c_str(), trigTok.c_str());
    }
}

std::string
formatEntry(const std::string &site, const SiteRule &r)
{
    std::string out = site + "=";
    switch (r.action) {
      case FailpointHit::Kind::Err:
        out += "err:" + errnoName(r.err);
        break;
      case FailpointHit::Kind::ShortWrite:
        out += "short_write:" + std::to_string(r.arg);
        break;
      case FailpointHit::Kind::Torn:
        out += "torn:" + std::to_string(r.arg);
        break;
      case FailpointHit::Kind::Hang: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "hang:%gs", r.hangSec);
        out += buf;
        break;
      }
      case FailpointHit::Kind::None:
        break;
    }
    out += "@";
    switch (r.trig.kind) {
      case Trigger::Kind::Nth:
        out += std::to_string(r.trig.n);
        break;
      case Trigger::Kind::From:
        out += std::to_string(r.trig.n) + "+";
        break;
      case Trigger::Kind::Every:
        out += "*";
        break;
      case Trigger::Kind::Chance: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "p%g", r.trig.p);
        out += buf;
        out += ",seed" + std::to_string(r.trig.seed);
        break;
      }
    }
    return out;
}

/** Expand `random:<seed>` into a concrete schedule string. */
std::string
expandRandom(const std::string &spec)
{
    std::uint64_t seed;
    if (!parseU64Strict(spec.c_str() + 7, ~0ull, seed))
        fatal("failpoint schedule 'random:<seed>': bad seed '%s'",
              spec.c_str() + 7);
    // Purity: the whole schedule is a function of the seed alone.
    Rng rng = Rng::jobStream(seed, 0xfa17u);
    std::string out;
    for (const auto &c : kSites) {
        if (!c.random)
            continue;
        // Arm roughly half the sites each run so schedules differ in
        // shape, not just in parameters.
        if (!rng.chance(0.5))
            continue;
        std::size_t nact = 0;
        while (nact < 3 && c.actions[nact])
            nact++;
        std::string action = c.actions[rng.uniformInt(nact)];
        std::size_t pct = action.find("%u");
        if (pct != std::string::npos)
            action.replace(pct, 2,
                           std::to_string(rng.uniformInt(1, 24)));
        // Low per-evaluation probability: faults should perturb the
        // run, not saturate it (a saturated claim.create is just the
        // solo-fallback test again).
        char trig[48];
        std::snprintf(trig, sizeof(trig), "p%.3f,seed%llu",
                      0.01 + 0.09 * rng.uniform(),
                      static_cast<unsigned long long>(rng.next()));
        if (!out.empty())
            out += ";";
        out += std::string(c.site) + "=" + action + "@" + trig;
    }
    // An empty draw would read as "chaos passed" while testing
    // nothing: always arm at least the cheapest degradation.
    if (out.empty())
        out = "cache.fsync=err:EIO@p0.05,seed" + std::to_string(seed);
    return out;
}

} // namespace

namespace failpoint_detail {

FailpointHit
evalSlow(const char *site)
{
    Registry &reg = registry();
    FailpointHit hit;
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        int st = g_state.load(std::memory_order_relaxed);
        if (st == 0) {
            // First evaluation anywhere: read the environment once.
            const char *env = std::getenv("UBIK_FAILPOINTS");
            if (env && *env) {
                // Re-entrant configure under our lock is a deadlock;
                // release, configure, re-evaluate.
                // (configure takes the same lock.)
            } else {
                g_state.store(1, std::memory_order_relaxed);
                return FailpointHit{};
            }
        }
        if (st == 2) {
            auto it = reg.sites.find(site);
            if (it == reg.sites.end()) {
                // Schedules only arm table sites, so an evaluated site
                // missing from the table could never be armed.
                ubik_assert(knownSite(site));
                return FailpointHit{};
            }
            SiteRule &r = it->second;
            r.evals++;
            bool fire = false;
            switch (r.trig.kind) {
              case Trigger::Kind::Nth:
                fire = r.evals == r.trig.n;
                break;
              case Trigger::Kind::From:
                fire = r.evals >= r.trig.n;
                break;
              case Trigger::Kind::Every:
                fire = true;
                break;
              case Trigger::Kind::Chance:
                fire = r.rng.chance(r.trig.p);
                break;
            }
            if (!fire)
                return FailpointHit{};
            r.fires++;
            hit.kind = r.action;
            hit.err = r.err;
            hit.arg = r.arg;
            hit.hangSec = r.hangSec;
        }
    }
    if (hit.kind == FailpointHit::Kind::None &&
        g_state.load(std::memory_order_relaxed) == 0) {
        // Deferred env initialization (outside the registry lock).
        const char *env = std::getenv("UBIK_FAILPOINTS");
        failpointConfigure(env ? env : "");
        return failpointEval(site);
    }
    // Hang sleeps here, outside the lock, so a hung site never stalls
    // every other site's evaluation.
    if (hit.kind == FailpointHit::Kind::Hang)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(hit.hangSec));
    return hit;
}

} // namespace failpoint_detail

void
failpointConfigure(const std::string &schedule)
{
    std::string spec = schedule;
    if (spec.compare(0, 7, "random:") == 0)
        spec = expandRandom(spec);

    std::map<std::string, SiteRule> sites;
    for (const std::string &entry : splitOn(spec, ';')) {
        if (entry.empty())
            continue;
        std::string site;
        SiteRule rule;
        parseEntry(entry, site, rule);
        // Chance triggers draw from a pure per-(seed, site) stream:
        // replaying a schedule replays the exact firing pattern.
        rule.rng = Rng::jobStream(rule.trig.seed, fnvString(site));
        if (!sites.emplace(std::move(site), std::move(rule)).second)
            fatal("failpoint '%s': site configured twice",
                  entry.c_str());
    }

    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.sites = std::move(sites);
    failpoint_detail::g_state.store(reg.sites.empty() ? 1 : 2,
                                    std::memory_order_relaxed);
}

void
failpointReset()
{
    failpointConfigure("");
}

bool
failpointsArmed()
{
    return failpoint_detail::g_state.load(std::memory_order_relaxed) ==
           2;
}

std::string
failpointScheduleString()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::string out;
    for (const auto &kv : reg.sites) {
        if (!out.empty())
            out += ";";
        out += formatEntry(kv.first, kv.second);
    }
    return out;
}

std::vector<FailpointSiteStats>
failpointStats()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::vector<FailpointSiteStats> out;
    for (const auto &kv : reg.sites)
        out.push_back(
            FailpointSiteStats{kv.first, kv.second.evals,
                               kv.second.fires});
    return out;
}

void
failpointReport(std::FILE *out)
{
    for (const FailpointSiteStats &s : failpointStats())
        std::fprintf(out,
                     "  [failpoints] %s: %llu evaluations, %llu "
                     "fired\n",
                     s.site.c_str(),
                     static_cast<unsigned long long>(s.evals),
                     static_cast<unsigned long long>(s.fires));
}

} // namespace ubik
