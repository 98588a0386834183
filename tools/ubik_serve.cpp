/**
 * @file
 * ubik_serve: the always-on scenario query daemon, plus its client.
 *
 *   # Serve (usually with a pre-warmed cache)
 *   ubik_serve --socket /tmp/ubik.sock --cache-dir cache &
 *
 *   # Query a registered scenario (milliseconds when the cache is
 *   # warm); the "results" member is byte-identical to what
 *   # `ubik_run <name> --results out.json` writes
 *   ubik_serve --connect /tmp/ubik.sock fleet-utilization \
 *              --results-out answer.json
 *
 *   # Inline spec file, overrides, raw requests, daemon stats
 *   ubik_serve --connect /tmp/ubik.sock --spec my.json --set seeds=2
 *   ubik_serve --connect /tmp/ubik.sock --request '{"query":"list"}'
 *   ubik_serve --connect /tmp/ubik.sock --stats
 *
 * Shut the daemon down with SIGTERM: it stops accepting, finishes
 * in-flight requests, unlinks the socket, and exits 0.
 *
 * Experiment scale is environmental (UBIK_SCALE, UBIK_REQUESTS, ...)
 * and fixed at daemon startup: a query answers as if `ubik_run` ran
 * under the *daemon's* environment.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/cli.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "fleet/serve.h"
#include "report/report.h"
#include "sim/job_pool.h"
#include "sim/scenario.h"

using namespace ubik;

namespace {

/** One round trip: write `request`, half-close, read to EOF. */
std::string
roundTrip(const std::string &path, const std::string &request)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fatal("--connect: socket path too long (%s)", path.c_str());
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        fatal("socket: %s", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        fatal("connect %s: %s (is the daemon running?)", path.c_str(),
              std::strerror(errno));
    std::size_t off = 0;
    while (off < request.size()) {
        ssize_t n =
            ::write(fd, request.data() + off, request.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("write %s: %s", path.c_str(), std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    std::string resp;
    for (;;) {
        char buf[4096];
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("read %s: %s", path.c_str(), std::strerror(errno));
        }
        if (n == 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return resp;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("ubik_serve",
            "serve scenario queries over a unix socket, or query a "
            "running daemon");
    cli.allowPositionals(
        "scenario", "registered scenario name to query (client mode)");
    auto &socket_path =
        cli.flag("socket", "",
                 "serve on this unix socket path (server mode)");
    auto &threads = cli.flag("threads", static_cast<std::int64_t>(2),
                             "server request worker threads");
    auto &connect_path =
        cli.flag("connect", "",
                 "query the daemon at this socket path (client mode)");
    auto &spec_path =
        cli.flag("spec", "",
                 "client: query an inline spec from this JSON file "
                 "instead of a registered name");
    auto &sets = cli.multiFlag(
        "set", "client: spec override key=value (repeatable)");
    auto &request_raw = cli.flag(
        "request", "",
        "client: send this raw JSON request verbatim (expert mode; "
        "malformed input tests the daemon's error path)");
    auto &stats = cli.flag("stats", false,
                           "client: query the daemon's /stats");
    auto &results_out = cli.flag(
        "results-out", "",
        "client: extract the \"results\" member into this file — "
        "byte-identical to `ubik_run --results` for the same spec "
        "and environment");
    auto &cache_dir =
        cli.flag("cache-dir", "",
                 "server: persistent result cache directory "
                 "(overrides UBIK_CACHE_DIR)");
    auto &jobs = cli.flag("jobs", static_cast<std::int64_t>(0),
                          "server: engine workers per query (0 = "
                          "UBIK_JOBS or all cores)");
    auto &failpoints = cli.flag(
        "failpoints", "",
        "server: arm deterministic fault injection (serve.accept, "
        "serve.read, serve.write, and the cache/claim sites)");
    auto &verbose =
        cli.flag("verbose", false, "server: per-request log lines");
    cli.parse(argc, argv);
    const std::uint64_t n_jobs = flagInRange(jobs, 0, kMaxJobs);

    bool server = !socket_path.value.empty();
    bool client = !connect_path.value.empty();
    if (server == client)
        fatal("pass exactly one of --socket (serve) or --connect "
              "(query); try --help");

    if (server) {
        if (!cli.positionals().empty() || !spec_path.value.empty() ||
            !request_raw.value.empty() || stats.value ||
            !sets.value.empty() || !results_out.value.empty())
            fatal("--socket starts a daemon; the query flags "
                  "(scenario name, --spec, --set, --request, "
                  "--stats, --results-out) belong to --connect");
        if (!failpoints.value.empty()) {
            failpointConfigure(failpoints.value);
            std::fprintf(stderr, "  [failpoints] armed: %s\n",
                         failpointScheduleString().c_str());
        }
        ExperimentConfig cfg = ExperimentConfig::fromEnv();
        if (!cache_dir.value.empty())
            cfg.cacheDir = cache_dir.value;
        if (n_jobs > 0)
            cfg.jobs = static_cast<std::uint32_t>(n_jobs);
        ServeOptions opt;
        opt.socketPath = socket_path.value;
        opt.threads = static_cast<unsigned>(flagInRange(threads, 1, 64));
        opt.verbose = verbose.value;
        int rc = serveMain(opt, cfg);
        if (failpointsArmed())
            failpointReport(stderr);
        return rc;
    }

    // Client mode: build the request.
    int modes = (!cli.positionals().empty() ? 1 : 0) +
                (!spec_path.value.empty() ? 1 : 0) +
                (!request_raw.value.empty() ? 1 : 0) +
                (stats.value ? 1 : 0);
    if (modes != 1)
        fatal("pass exactly one of: a scenario name, --spec, "
              "--request, or --stats");
    std::string request;
    if (stats.value) {
        request = "{\"query\": \"stats\"}";
    } else if (!request_raw.value.empty()) {
        request = request_raw.value;
    } else {
        Json req = Json::object();
        req.set("query", "scenario");
        if (!cli.positionals().empty()) {
            if (cli.positionals().size() != 1)
                fatal("expected exactly one scenario name");
            req.set("name", cli.positionals().front());
        } else {
            Json j;
            std::string err;
            if (!Json::parseFile(spec_path.value, j, err))
                fatal("--spec %s: %s", spec_path.value.c_str(),
                      err.c_str());
            req.set("spec", std::move(j));
        }
        if (!sets.value.empty()) {
            Json jsets = Json::array();
            for (const auto &s : sets.value)
                jsets.push(s);
            req.set("set", std::move(jsets));
        }
        request = req.dump(/*pretty=*/false);
    }

    std::string resp = roundTrip(connect_path.value, request);
    Json jresp;
    std::string err;
    if (!Json::parse(resp, jresp, err))
        fatal("daemon sent unparseable response (%s): %s",
              err.c_str(), resp.c_str());
    bool ok = false;
    if (const Json *v = jresp.find("ok"))
        ok = v->boolean();
    if (!results_out.value.empty()) {
        if (!ok)
            fatal("daemon refused the query; no results to write: %s",
                  resp.c_str());
        const Json *results = jresp.find("results");
        if (!results)
            fatal("response has no \"results\" member: %s",
                  resp.c_str());
        writeJsonFile(*results, results_out.value);
        std::fprintf(stderr, "  [serve-client] wrote %s\n",
                     results_out.value.c_str());
        return 0;
    }
    std::printf("%s", resp.c_str());
    return ok ? 0 : 2;
}
