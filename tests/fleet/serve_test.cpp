/**
 * @file
 * ubik_serve daemon invariants, driven mostly through
 * ServeDaemon::handleRequest (the exact body run() serves per
 * connection) plus one real-socket test:
 *
 *  - a scenario query's "results" member is byte-identical to what a
 *    direct runScenario + scenarioResultsJson produces (what
 *    `ubik_run --results` writes);
 *  - repeated queries hit the response memo and stay byte-identical;
 *  - malformed/invalid requests get {"ok": false, ...} responses and
 *    never kill the daemon;
 *  - concurrent socket clients all receive the same bytes, and
 *    requestStop() drains and unlinks the socket.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "support/cache_test_util.h"
#include "fleet/serve.h"
#include "sim/scenario.h"

namespace ubik {
namespace {

using test::TempCacheDir;

ExperimentConfig
serveTestCfg(const std::string &cache_dir)
{
    ExperimentConfig cfg = test::cacheTestCfg();
    cfg.seeds = 1;
    cfg.jobs = 2;
    cfg.cacheDir = cache_dir;
    return cfg;
}

/** Parse a daemon response; returns the "ok" member. */
bool
parseResponse(const std::string &resp, Json &out)
{
    std::string err;
    EXPECT_TRUE(Json::parse(resp, out, err)) << err;
    const Json *ok = out.find("ok");
    EXPECT_NE(ok, nullptr);
    return ok && ok->boolean();
}

/** The client side of the protocol: write, half-close, read to EOF
 *  (what `ubik_serve --connect` does). */
std::string
roundTrip(const std::string &path, const std::string &request)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    EXPECT_LT(path.size(), sizeof(addr.sun_path));
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
    std::size_t off = 0;
    while (off < request.size()) {
        ssize_t n =
            ::write(fd, request.data() + off, request.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        EXPECT_GT(n, 0) << std::strerror(errno);
        if (n <= 0) {
            ::close(fd);
            return "";
        }
        off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    std::string resp;
    for (;;) {
        char buf[4096];
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        EXPECT_GE(n, 0) << std::strerror(errno);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return resp;
}

TEST(ServeDaemon, ScenarioQueryMatchesDirectRunAndMemoizes)
{
    TempCacheDir dir("serve_direct");
    ExperimentConfig cfg = serveTestCfg(dir.path());
    ServeOptions opt;
    ServeDaemon daemon(opt, cfg);

    std::string resp = daemon.handleRequest(
        "{\"query\": \"scenario\", \"name\": \"fleet-utilization\"}");
    Json j;
    ASSERT_TRUE(parseResponse(resp, j));
    const Json *results = j.find("results");
    ASSERT_NE(results, nullptr);

    // Byte-identical to a direct run: scenarioResultsJson is what
    // `ubik_run --results` writes for the same spec + environment.
    const ScenarioSpec *spec =
        ScenarioRegistry::instance().find("fleet-utilization");
    ASSERT_NE(spec, nullptr);
    ExperimentConfig direct_cfg = cfg;
    direct_cfg.fleet = false; // the daemon serves without claiming
    ScenarioResult res = runScenario(*spec, direct_cfg);
    EXPECT_EQ(results->dump(true),
              scenarioResultsJson(*spec, res, false).dump(true));

    // Repeat: answered from the memo, byte-identical.
    std::string again = daemon.handleRequest(
        "{\"query\": \"scenario\", \"name\": \"fleet-utilization\"}");
    EXPECT_EQ(resp, again);
    ServeStatsSnapshot s = daemon.snapshot();
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.ok, 2u);
    EXPECT_EQ(s.errors, 0u);
    EXPECT_EQ(s.memoHits, 1u);
}

TEST(ServeDaemon, BadRequestsGetErrorResponsesAndDaemonSurvives)
{
    TempCacheDir dir("serve_errors");
    ServeOptions opt;
    ServeDaemon daemon(opt, serveTestCfg(dir.path()));

    const char *bad[] = {
        "{\"query\":",                              // malformed JSON
        "{\"no_query\": 1}",                        // missing query
        "{\"query\": \"frobnicate\"}",              // unknown query
        "{\"query\": \"scenario\"}",                // no name/spec
        "{\"query\": \"scenario\", \"name\": \"x\","
        " \"spec\": {}}",                           // both name+spec
        "{\"query\": \"scenario\", \"name\": \"nope\"}",
        "{\"query\": \"scenario\", \"spec\": "
        "{\"bogus_key\": 1}}",                      // spec typo
        "{\"query\": \"scenario\", \"spec\": {\"name\": \"x\", "
        "\"fleet\": {\"queue_seed\": 1e20}}}",      // seed out of range
        "{\"query\": \"scenario\", \"name\": \"fleet-utilization\","
        " \"set\": [\"servers=0\"]}",               // bad override
    };
    for (const char *req : bad) {
        Json j;
        std::string resp = daemon.handleRequest(req);
        EXPECT_FALSE(parseResponse(resp, j)) << req;
        const Json *err = j.find("error");
        ASSERT_NE(err, nullptr) << req;
        EXPECT_FALSE(err->str().empty()) << req;
    }

    // Still alive and accounting for everything it saw.
    Json j;
    std::string resp = daemon.handleRequest("{\"query\": \"stats\"}");
    ASSERT_TRUE(parseResponse(resp, j));
    const Json *stats = j.find("stats");
    ASSERT_NE(stats, nullptr);
    ServeStatsSnapshot s = daemon.snapshot();
    EXPECT_EQ(s.errors, std::size(bad));
    EXPECT_EQ(s.requests, std::size(bad) + 1);
    EXPECT_EQ(s.ok, 1u);
}

TEST(ServeDaemon, ListNamesEveryRegisteredScenario)
{
    TempCacheDir dir("serve_list");
    ServeOptions opt;
    ServeDaemon daemon(opt, serveTestCfg(dir.path()));
    Json j;
    ASSERT_TRUE(
        parseResponse(daemon.handleRequest("{\"query\": \"list\"}"), j));
    const Json *names = j.find("scenarios");
    ASSERT_NE(names, nullptr);
    EXPECT_EQ(names->items().size(),
              ScenarioRegistry::instance().all().size());
    bool has_fleet = false;
    for (const Json &n : names->items())
        has_fleet |= n.str() == "fleet-utilization";
    EXPECT_TRUE(has_fleet);
}

TEST(ServeDaemon, ConcurrentSocketClientsGetIdenticalBytes)
{
    TempCacheDir dir("serve_socket");
    std::string sock =
        (std::filesystem::temp_directory_path() /
         ("ubik_serve_test_" + std::to_string(::getpid()) + ".sock"))
            .string();
    ASSERT_LT(sock.size(), sizeof(sockaddr_un{}.sun_path));

    ServeOptions opt;
    opt.socketPath = sock;
    opt.threads = 3;
    ServeDaemon daemon(opt, serveTestCfg(dir.path()));
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    std::thread server([&] { daemon.run(); });

    const std::string query =
        "{\"query\": \"scenario\", \"name\": \"fleet-utilization\"}";
    constexpr int kClients = 4;
    std::string resp[kClients];
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; i++)
        clients.emplace_back(
            [&, i] { resp[i] = roundTrip(sock, query); });
    for (std::thread &t : clients)
        t.join();

    for (int i = 0; i < kClients; i++) {
        ASSERT_FALSE(resp[i].empty()) << "client " << i;
        EXPECT_EQ(resp[i], resp[0]) << "client " << i;
        EXPECT_EQ(resp[i].back(), '\n');
        Json j;
        EXPECT_TRUE(parseResponse(resp[i], j)) << "client " << i;
        EXPECT_NE(j.find("results"), nullptr);
    }

    // Graceful drain: stop, join, socket unlinked.
    daemon.requestStop();
    server.join();
    EXPECT_FALSE(std::filesystem::exists(sock));
    ServeStatsSnapshot s = daemon.snapshot();
    EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(s.ok, static_cast<std::uint64_t>(kClients));
}

} // namespace
} // namespace ubik
