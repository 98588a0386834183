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
 *  - fresh-named queries always miss the memo and read every job
 *    from the result cache, and the memo stays within its budget,
 *    evicting the least recently used answer first;
 *  - malformed/invalid requests get {"ok": false, ...} responses and
 *    never kill the daemon;
 *  - the stats' p95 service time covers only the last
 *    kServeServiceWindow requests, its mean every request;
 *  - concurrent socket clients all receive the same bytes, and
 *    requestStop() drains and unlinks the socket;
 *  - clients that connect and never send their request, or trickle
 *    it a byte at a time, time out (kServeSocketTimeout), so they
 *    stall neither queries nor the drain.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "support/cache_test_util.h"
#include "fleet/serve.h"
#include "sim/scenario.h"
#include "stats/latency_recorder.h"

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

/** A client socket connected to the daemon at `path` whose reads give
 *  up after `timeout`, so a daemon that never answers fails the test
 *  instead of hanging it. */
int
connectTo(const std::string &path,
          std::chrono::milliseconds timeout = std::chrono::minutes(1))
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
    const timeval tv{static_cast<time_t>(timeout.count() / 1000),
                     static_cast<suseconds_t>(timeout.count() % 1000 * 1000)};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

/** Read `fd` to EOF. */
std::string
readAll(int fd)
{
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
    return resp;
}

/** The client side of the protocol: write, half-close, read to EOF
 *  (what `ubik_serve --connect` does). */
std::string
roundTrip(const std::string &path, const std::string &request,
          std::chrono::milliseconds timeout = std::chrono::minutes(1))
{
    int fd = connectTo(path, timeout);
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
    std::string resp = readAll(fd);
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

/**
 * A cache warmed once per suite by a direct fig9 run at a small
 * scale, for the memo tests: every daemon query over it reads its
 * results from the cache and simulates nothing.
 */
class ServeMemo : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        dir_ = std::make_unique<TempCacheDir>("serve_memo");
        ScenarioResult res = runScenario(fig9(), cfg(), nullptr, nullptr);
        reference_ = std::make_unique<Json>(
            scenarioResultsJson(fig9(), res, false));
    }

    static void TearDownTestSuite()
    {
        reference_.reset();
        dir_.reset();
    }

    static ExperimentConfig cfg()
    {
        ExperimentConfig c = serveTestCfg(dir_->path());
        c.scale = 64.0;
        c.roiRequests = 10;
        c.warmupRequests = 5;
        return c;
    }

    static const ScenarioSpec &fig9()
    {
        return *ScenarioRegistry::instance().find("fig9");
    }

    /** fig9 under another name. */
    static ScenarioSpec renamed(const std::string &name)
    {
        ScenarioSpec spec = fig9();
        spec.name = name;
        return spec;
    }

    /** The query for the inline fig9 spec under a fresh name. */
    static std::string inlineQuery(const std::string &name)
    {
        Json req = Json::object();
        req.set("query", "scenario");
        req.set("spec", scenarioToJson(renamed(name)));
        return req.dump();
    }

    /** The answer's "results", renamed to the direct run's. */
    static std::string renamedResults(const std::string &resp)
    {
        Json j;
        EXPECT_TRUE(parseResponse(resp, j)) << resp;
        const Json *results = j.find("results");
        if (!results)
            return std::string();
        Json named = *results;
        named.set("scenario", fig9().name);
        return named.dump(true);
    }

    static inline std::unique_ptr<TempCacheDir> dir_;
    /** The direct run's results. */
    static inline std::unique_ptr<Json> reference_;
};

TEST_F(ServeMemo, FreshNamesMissTheMemoAndReadEveryJobFromTheCache)
{
    ServeOptions opt;
    ServeDaemon daemon(opt, cfg());
    const std::string a = daemon.handleRequest(inlineQuery("fresh-a"));
    const std::string b = daemon.handleRequest(inlineQuery("fresh-b"));
    EXPECT_EQ(renamedResults(a), reference_->dump(true));
    EXPECT_EQ(renamedResults(b), reference_->dump(true));
    ServeStatsSnapshot s = daemon.snapshot();
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.memoHits, 0u);
    // The memo counts each answer's key (the canonical spec) and body.
    EXPECT_EQ(s.memoEntries, 2u);
    EXPECT_EQ(s.memoBytes,
              scenarioCanonicalJson(renamed("fresh-a")).size() + a.size() +
                  scenarioCanonicalJson(renamed("fresh-b")).size() +
                  b.size());
    EXPECT_EQ(s.cacheMisses, 0u);
    EXPECT_GT(s.cacheHits, 0u);
}

TEST_F(ServeMemo, FreshNamesPastTheBudgetEvictTheLeastRecentlyUsed)
{
    ServeOptions opt;
    ServeDaemon daemon(opt, cfg());
    const std::string registered =
        "{\"query\": \"scenario\", \"name\": \"fig9\"}";
    const std::string hot = daemon.handleRequest(registered);
    const std::string oldest = daemon.handleRequest(inlineQuery("fresh0"));
    // Fresh names until the budget evicts, the registered query asked
    // between them: it stays the most recently used, so a memo hit.
    std::uint64_t fresh = 1, hits = 0;
    ServeStatsSnapshot s = daemon.snapshot();
    for (; s.memoEvictions < 3 && fresh < 1000; fresh++) {
        daemon.handleRequest(inlineQuery("fresh" + std::to_string(fresh)));
        EXPECT_EQ(daemon.handleRequest(registered), hot);
        hits++;
        s = daemon.snapshot();
        ASSERT_LE(s.memoBytes, kServeMemoBudgetBytes);
        ASSERT_EQ(s.memoHits, hits);
    }
    EXPECT_GE(s.memoEvictions, 3u);
    EXPECT_EQ(s.memoEntries, 1 + fresh - s.memoEvictions);
    // The oldest fresh answer was evicted: asked again it misses the
    // memo, and the cache serves it byte-identical.
    EXPECT_EQ(daemon.handleRequest(inlineQuery("fresh0")), oldest);
    s = daemon.snapshot();
    EXPECT_EQ(s.memoHits, hits);
    EXPECT_EQ(s.cacheMisses, 0u);
    EXPECT_EQ(renamedResults(oldest), reference_->dump(true));
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
        "\"load_profile\": {\"kind\": \"bursts\", "
        "\"burst_seed\": 1e20}}}",                 // seed out of range
        "{\"query\": \"scenario\", \"name\": \"fleet-utilization\","
        " \"set\": [\"servers=0\"]}",               // bad override
        // Fatal inside the simulation, on the sweep's pool threads:
        // way-partitioning on the default zcache array.
        "{\"query\": \"scenario\", \"spec\": {\"name\": \"wp\", "
        "\"source\": \"explicit\", \"seeds\": 4, \"schemes\": "
        "[{\"label\": \"wp\", \"policy\": \"Ubik\", \"scheme\": "
        "\"WayPart\"}], \"mixes\": [{\"lc\": \"specjbb\"}, "
        "{\"lc\": \"masstree\"}, {\"lc\": \"xapian\"}]}}",
    };
    for (const char *req : bad) {
        Json j;
        std::string resp = daemon.handleRequest(req);
        EXPECT_FALSE(parseResponse(resp, j)) << req;
        const Json *err = j.find("error");
        ASSERT_NE(err, nullptr) << req;
        EXPECT_FALSE(err->str().empty()) << req;
        if (std::strstr(req, "WayPart")) {
            EXPECT_NE(err->str().find("way-partitioning requires"),
                      std::string::npos)
                << err->str();
        }
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

TEST(ServeDaemon, ServiceStatsOutliveTheirWindow)
{
    TempCacheDir dir("serve_window");
    ServeOptions opt;
    ServeDaemon daemon(opt, serveTestCfg(dir.path()));

    // Slow requests (a padded body the parser must read) more than 5%
    // of all, then a window of fast ones. Each call's time measured
    // around it bounds the daemon's own measure of it, so the p95 of
    // the window is bounded by the fast calls' p95, which an all-time
    // p95 (reaching into the slow calls) would not be.
    const std::string slow = "{\"query\": \"list\", \"pad\": \"" +
                             std::string(std::size_t{1} << 18, 'x') +
                             "\"}";
    const std::size_t nslow = kServeServiceWindow / 16;
    double total_us = 0;
    auto timed = [&](const std::string &req) {
        const auto t0 = std::chrono::steady_clock::now();
        std::string resp = daemon.handleRequest(req);
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        total_us += us;
        Json j;
        EXPECT_TRUE(parseResponse(resp, j));
        return us;
    };
    for (std::size_t i = 0; i < nslow; i++)
        timed(slow);
    std::vector<double> fast;
    for (std::size_t i = 0; i < kServeServiceWindow; i++)
        fast.push_back(timed("{\"query\": \"list\"}"));

    const ServeStatsSnapshot s = daemon.snapshot();
    EXPECT_EQ(s.requests, nslow + kServeServiceWindow);
    EXPECT_EQ(s.ok, s.requests);
    auto p95 = fast.begin() + (nearestRank(95.0, fast.size()) - 1);
    std::nth_element(fast.begin(), p95, fast.end());
    EXPECT_LE(s.p95ServiceUs, *p95);
    EXPECT_GT(s.meanServiceUs, 0.0);
    EXPECT_LE(s.meanServiceUs,
              total_us / static_cast<double>(s.requests));
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

TEST(ServeDaemon, IdleClientsCannotStallQueriesOrDrain)
{
    TempCacheDir dir("serve_idle");
    std::string sock =
        (std::filesystem::temp_directory_path() /
         ("ubik_serve_idle_" + std::to_string(::getpid()) + ".sock"))
            .string();
    ASSERT_LT(sock.size(), sizeof(sockaddr_un{}.sun_path));

    ServeOptions opt; // the default worker count
    opt.socketPath = sock;
    ServeDaemon daemon(opt, serveTestCfg(dir.path()));
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    std::thread server([&] { daemon.run(); });
    const auto bound = kServeSocketTimeout + std::chrono::seconds(3);
    using Clock = std::chrono::steady_clock;

    // One connection per worker that never finishes its request; once
    // the workers hold them, every other client waits behind them.
    auto holdWorkers = [&] {
        std::vector<int> fds;
        for (unsigned i = 0; i < opt.threads; i++)
            fds.push_back(connectTo(sock, bound));
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        return fds;
    };
    // Each held client is answered with the timeout. The answer is
    // read to EOF or an error: bytes a trickling client sent after the
    // deadline sit unread, and the daemon's close then resets the
    // connection behind the answer.
    auto expectTimedOut = [](int fd) {
        std::string resp;
        char buf[4096];
        for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) != 0;) {
            if (n < 0 && errno != EINTR)
                break;
            if (n > 0)
                resp.append(buf, static_cast<std::size_t>(n));
        }
        Json e;
        EXPECT_FALSE(parseResponse(resp, e)) << resp;
        const Json *msg = e.isObject() ? e.find("error") : nullptr;
        ASSERT_NE(msg, nullptr) << resp;
        EXPECT_NE(msg->str().find("timed out"), std::string::npos)
            << msg->str();
    };

    std::vector<int> held = holdWorkers();
    auto t0 = Clock::now();
    Json j;
    EXPECT_TRUE(parseResponse(
        roundTrip(sock, "{\"query\": \"list\"}", bound), j));
    EXPECT_LE(Clock::now() - t0, bound);
    for (int fd : held) {
        expectTimedOut(fd);
        ::close(fd);
    }

    // The drain waits for in-flight requests, and a stalled one ends
    // within the timeout too, even while its client trickles the
    // request a byte every quarter timeout: the deadline covers the
    // whole request, not each read.
    held = holdWorkers();
    std::atomic<bool> trickling{true};
    std::thread trickler([&] {
        while (trickling.load()) {
            for (int fd : held)
                (void)!::send(fd, " ", 1, MSG_NOSIGNAL);
            std::this_thread::sleep_for(kServeSocketTimeout / 4);
        }
    });
    t0 = Clock::now();
    auto drained = std::async(std::launch::async, [&] {
        daemon.requestStop();
        server.join();
    });
    const bool in_time =
        drained.wait_for(bound) == std::future_status::ready;
    trickling.store(false);
    trickler.join();
    if (!in_time)
        for (int fd : held)
            ::shutdown(fd, SHUT_WR); // frees a worker still reading
    drained.wait();
    EXPECT_TRUE(in_time) << "drain took "
                         << std::chrono::duration<double>(Clock::now() - t0)
                                .count()
                         << " s";
    if (in_time)
        for (int fd : held)
            expectTimedOut(fd);
    for (int fd : held)
        ::close(fd);
    EXPECT_FALSE(std::filesystem::exists(sock));
    ServeStatsSnapshot s = daemon.snapshot();
    EXPECT_EQ(s.readErrors, 2u * opt.threads);
    EXPECT_EQ(s.ok, 1u);
}

} // namespace
} // namespace ubik
