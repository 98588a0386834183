/**
 * @file
 * ubik_run: the one driver for every declarative experiment — the
 * registered paper figures/ablations and arbitrary user specs.
 *
 *   # What can I run?
 *   ubik_run --list
 *
 *   # Fig 9 at 4 seeds, 2 batch mixes per LC config
 *   ubik_run fig9 --set seeds=4 --set mixes=2
 *
 *   # Dump a built-in spec, edit it, run the edited file
 *   ubik_run --dump fig9 > my.json
 *   ubik_run --spec my.json --set schemes=Ubik,StaticLC
 *
 *   # Machine-readable results (bit-identical runs diff clean)
 *   ubik_run fig9 --results fig9.json
 *
 *   # Two cooperating workers filling one sweep matrix (distributed
 *   # sweeps: see README "Distributed sweeps")
 *   ubik_run fig9 --fleet --cache-dir cache --worker-id a &
 *   ubik_run fig9 --fleet --cache-dir cache --worker-id b
 *
 * Overrides apply in order after the spec loads, so `--set` always
 * beats the spec file, and a later `--set` beats an earlier one.
 * Machine scale stays environmental (UBIK_SCALE, UBIK_REQUESTS,
 * UBIK_MIXES, UBIK_CACHE_DIR, ... — see src/sim/experiment.h), so
 * the same spec serves smoke tests and paper-scale sweeps.
 */

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "report/report.h"
#include "sim/claim_store.h"
#include "sim/parallel_sweep.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"

using namespace ubik;

namespace {

void
listScenarios()
{
    std::printf("%-26s %-8s %-13s %s\n", "name", "schemes", "mixes",
                "title");
    for (const ScenarioSpec &s : ScenarioRegistry::instance().all()) {
        std::string mixes = enumName(s.source);
        if (s.source == MixSource::Explicit)
            mixes = std::to_string(s.mixes.size()) + " explicit";
        if (s.mixesPerLcCap) // only a standard source may set one
            mixes += "<=" + std::to_string(s.mixesPerLcCap);
        if (s.band != LoadBand::All)
            mixes += std::string("/") + enumName(s.band);
        std::printf("%-26s %-8zu %-13s %s\n", s.name.c_str(),
                    s.schemes.size(), mixes.c_str(),
                    s.title.c_str());
    }
}

/**
 * --fleet-status: without running anything, print how much of the
 * spec's sweep matrix the cache already holds, and who holds live
 * claim leases (<cache-dir>/claims/) — per-worker matrix fill for a
 * distributed fleet mid-sweep.
 */
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
    if (!cache->persistent())
        fatal("--fleet-status: cannot open cache at %s",
              cfg.cacheDir.c_str());
    std::vector<MixSpec> mixes = buildScenarioMixes(spec, cfg);
    std::vector<SweepJob> jobs =
        buildSweepJobs(spec.schemes, mixes, cfg.seeds);
    std::vector<std::string> keys =
        buildSweepKeys(cfg, spec.ooo, spec.schemes, mixes, cfg.seeds);

    // Matrix fill: probe every (scheme, mix, seed) result key plus
    // the baseline keys the sweep would prewarm. Probes only — no
    // stats counted, nothing computed, nothing claimed.
    std::set<std::string> jobKeys;
    std::size_t done = 0;
    SweepBaselines base;
    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (cache->peekMix(keys[i]))
            done++;
        jobKeys.insert(std::move(keys[i]));
        base.add(cfg, spec.ooo, jobs[i]);
    }
    std::size_t lcDone = 0, batchDone = 0;
    for (const auto &kv : base.lc)
        lcDone += cache->has(kv.first);
    for (const auto &kv : base.batch)
        batchDone += cache->has(kv.first);
    std::printf("[fleet-status] scenario=%s cache=%s\n",
                spec.name.c_str(), cfg.cacheDir.c_str());
    std::printf("[fleet-status] matrix: jobs=%zu done=%zu (%.1f%%) "
                "lc_baselines=%zu/%zu batch_baselines=%zu/%zu\n",
                jobs.size(), done,
                jobs.empty() ? 100.0 : 100.0 * done / jobs.size(),
                lcDone, base.lc.size(), batchDone, base.batch.size());

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

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("ubik_run",
            "run a declarative experiment scenario (built-in or from "
            "a JSON spec)");
    cli.allowPositionals("scenario",
                         "name of a registered scenario (see --list)");
    auto &list = cli.flag("list", false,
                          "list the registered scenarios and exit");
    auto &dump =
        cli.flag("dump", "",
                 "print a registered scenario's canonical spec JSON "
                 "and exit");
    auto &spec_path = cli.flag("spec", "",
                               "load the scenario from a JSON spec "
                               "file instead of the registry");
    auto &sets = cli.multiFlag(
        "set", "override a spec field, key=value; keys: " +
                   scenarioOverrideKeys() + "; later wins");
    auto &results =
        cli.flag("results", "",
                 "write the full sweep as structured JSON to this "
                 "path");
    auto &accounting = cli.flag(
        "accounting", false,
        "include the per-worker sweep accounting (wall-clock, "
        "throughput) in the --results JSON; off by default because "
        "timings break byte-identical reruns");
    auto &fleet_status = cli.flag(
        "fleet-status", false,
        "inspect instead of run: print how much of the scenario's "
        "sweep matrix the cache already holds and which workers "
        "hold live claim leases, then exit");
    auto &jobs = cli.flag("jobs", static_cast<std::int64_t>(0),
                          "engine workers (0 = UBIK_JOBS or all "
                          "cores, 1 = sequential)");
    auto &cache_dir =
        cli.flag("cache-dir", "",
                 "persistent result cache directory (overrides "
                 "UBIK_CACHE_DIR)");
    auto &no_cache = cli.flag("no-cache", false,
                              "ignore UBIK_CACHE_DIR / --cache-dir");
    auto &fleet = cli.flag(
        "fleet", false,
        "cooperate with other --fleet processes sharing the cache "
        "dir: claim (scheme, mix, seed) jobs via lease files, so N "
        "invocations fill one sweep matrix between them");
    auto &worker_id =
        cli.flag("worker-id", "",
                 "fleet lease owner identity (default host-pid)");
    auto &lease_ttl = cli.flag(
        "lease-ttl", 60.0,
        "fleet lease TTL in seconds: a worker silent this long is "
        "presumed dead and its claims are reclaimed");
    auto &shard = cli.flag(
        "shard", "",
        "run only every n-th mix, as i/n (e.g. 0/4); shards share "
        "cache keys, so their caches merge");
    auto &failpoints = cli.flag(
        "failpoints", "",
        "arm deterministic fault injection, e.g. "
        "'cache.append=short_write@3;claim.create=err:EIO@p0.05,"
        "seed7' or 'random:<seed>' (see README \"Fault "
        "injection\")");
    cli.parse(argc, argv);
    const std::uint64_t n_jobs = flagInRange(jobs, 0, kMaxJobs);

    if (!failpoints.value.empty()) {
        failpointConfigure(failpoints.value);
        std::fprintf(stderr, "  [failpoints] armed: %s\n",
                     failpointScheduleString().c_str());
    }

    // The three modes (list, dump, run) are mutually exclusive;
    // silently ignoring the other mode's flags would "succeed" at
    // the wrong thing.
    if (list.value &&
        (!dump.value.empty() || !spec_path.value.empty() ||
         !results.value.empty() || !sets.value.empty() ||
         !cli.positionals().empty()))
        fatal("--list takes no other arguments");
    if (!dump.value.empty() &&
        (!spec_path.value.empty() || !results.value.empty()))
        fatal("--dump emits a spec; it cannot be combined with "
              "--spec or --results");
    if (fleet_status.value &&
        (list.value || !dump.value.empty() || !results.value.empty() ||
         fleet.value))
        fatal("--fleet-status inspects the cache; it cannot be "
              "combined with --list, --dump, --results, or --fleet");
    if (accounting.value && results.value.empty())
        fatal("--accounting only shapes the --results JSON; pass "
              "--results too");

    if (list.value) {
        listScenarios();
        return 0;
    }
    if (!dump.value.empty()) {
        if (!cli.positionals().empty())
            fatal("give a scenario name or --dump, not both");
        const ScenarioSpec *found =
            ScenarioRegistry::instance().find(dump.value);
        if (!found)
            fatal("unknown scenario '%s' (--list names them)",
                  dump.value.c_str());
        // Overrides apply before dumping, so dump/edit/run and
        // dump-with---set compose.
        ScenarioSpec dumped = *found;
        applyScenarioOverrides(dumped, sets.value);
        std::printf("%s\n", scenarioCanonicalJson(dumped).c_str());
        return 0;
    }

    // Resolve the spec: a registered name xor a spec file.
    ScenarioSpec spec;
    if (!spec_path.value.empty()) {
        if (!cli.positionals().empty())
            fatal("give a scenario name or --spec, not both");
        Json j;
        std::string err;
        if (!Json::parseFile(spec_path.value, j, err))
            fatal("--spec %s: %s", spec_path.value.c_str(),
                  err.c_str());
        spec = scenarioFromJson(j);
    } else {
        if (cli.positionals().size() != 1)
            fatal("expected exactly one scenario name (or --spec / "
                  "--list / --dump); try --help");
        const std::string &name = cli.positionals().front();
        const ScenarioSpec *found =
            ScenarioRegistry::instance().find(name);
        if (!found)
            fatal("unknown scenario '%s' (--list names them)",
                  name.c_str());
        spec = *found;
    }

    applyScenarioOverrides(spec, sets.value);

    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    if (n_jobs > 0)
        cfg.jobs = static_cast<std::uint32_t>(n_jobs);
    if (!cache_dir.value.empty())
        cfg.cacheDir = cache_dir.value;
    if (no_cache.value)
        cfg.cacheDir.clear();
    cfg.fleet = fleet.value;
    cfg.workerId = worker_id.value;
    if (lease_ttl.value <= 0)
        fatal("--lease-ttl must be > 0 seconds");
    cfg.leaseTtlSec = lease_ttl.value;
    if (!shard.value.empty())
        cfg.applyShardSpec(shard.value);
    if (cfg.fleet && cfg.cacheDir.empty())
        fatal("--fleet needs a shared cache: pass --cache-dir (or "
              "set UBIK_CACHE_DIR)");

    if (fleet_status.value) {
        printFleetStatus(spec, cfg);
        return 0;
    }

    int rc = executeScenario(spec, cfg, results.value,
                             accounting.value);
    if (failpointsArmed())
        failpointReport(stderr);
    return rc;
}
