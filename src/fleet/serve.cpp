#include "fleet/serve.h"

#include <cerrno>
#include <cstring>
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/log.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"

namespace ubik {

namespace {

/** Microseconds since `t0`, as a double. */
double
usSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

ServeDaemon::ServeDaemon(const ServeOptions &opt,
                         const ExperimentConfig &cfg)
    : opt_(opt), cfg_(cfg), started_(std::chrono::steady_clock::now())
{
    // Queries compute locally against the shared cache; the fleet
    // claim protocol is for cooperating sweep *processes*, and its
    // lease churn would only slow single-request latencies down.
    cfg_.fleet = false;
    cache_ = ResultCache::open(cfg_.cacheDir);
}

ServeDaemon::~ServeDaemon()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (stopPipe_[0] >= 0)
        ::close(stopPipe_[0]);
    if (stopPipe_[1] >= 0)
        ::close(stopPipe_[1]);
}

bool
ServeDaemon::start(std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg + ": " + std::strerror(errno);
        return false;
    };
    if (opt_.socketPath.empty()) {
        if (err)
            *err = "empty socket path";
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long (" + opt_.socketPath + ")";
        return false;
    }
    std::strncpy(addr.sun_path, opt_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return fail("socket");
    // The daemon owns its path: a leftover file from a crashed
    // predecessor must not wedge restarts. A *live* predecessor
    // still wins — its clients just lose the name, so refuse if
    // someone answers.
    int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
        if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            ::close(probe);
            if (err)
                *err = "another daemon is already serving " +
                       opt_.socketPath;
            return false;
        }
        ::close(probe);
    }
    ::unlink(opt_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind " + opt_.socketPath);
    if (::listen(listenFd_, 64) != 0)
        return fail("listen " + opt_.socketPath);
    if (::pipe(stopPipe_) != 0)
        return fail("pipe");
    return true;
}

void
ServeDaemon::requestStop()
{
    stopping_.store(true);
    if (stopPipe_[1] >= 0) {
        char c = 's';
        // Best effort: a full pipe already means a stop is pending.
        (void)!::write(stopPipe_[1], &c, 1);
    }
}

std::string
ServeDaemon::errorResponse(const std::string &msg)
{
    Json j = Json::object();
    j.set("ok", false);
    j.set("error", msg);
    return j.dump(/*pretty=*/true);
}

std::string
ServeDaemon::handleStats()
{
    ServeStatsSnapshot s = snapshot();
    Json j = Json::object();
    j.set("ok", true);
    Json st = Json::object();
    st.set("uptime_sec", s.uptimeSec);
    st.set("requests", s.requests);
    st.set("ok", s.ok);
    st.set("errors", s.errors);
    st.set("memo_hits", s.memoHits);
    st.set("accept_errors", s.acceptErrors);
    st.set("read_errors", s.readErrors);
    st.set("write_errors", s.writeErrors);
    st.set("mean_service_us", s.meanServiceUs);
    st.set("p95_service_us", s.p95ServiceUs);
    st.set("cache_hits", s.cacheHits);
    st.set("cache_misses", s.cacheMisses);
    j.set("stats", std::move(st));
    return j.dump(/*pretty=*/true);
}

std::string
ServeDaemon::handleList()
{
    Json j = Json::object();
    j.set("ok", true);
    Json names = Json::array();
    for (const ScenarioSpec &s : ScenarioRegistry::instance().all())
        names.push(s.name);
    j.set("scenarios", std::move(names));
    return j.dump(/*pretty=*/true);
}

std::string
ServeDaemon::handleScenario(const Json &req)
{
    const Json *name = req.find("name");
    const Json *inline_spec = req.find("spec");
    if (!!name == !!inline_spec)
        throw FatalError("scenario query needs exactly one of "
                         "\"name\" or \"spec\"");
    ScenarioSpec spec;
    if (name) {
        const ScenarioSpec *found =
            ScenarioRegistry::instance().find(name->str());
        if (!found)
            throw FatalError("unknown scenario '" + name->str() +
                             "' (the \"list\" query names them)");
        spec = *found;
    } else {
        spec = scenarioFromJson(*inline_spec);
    }
    if (const Json *sets = req.find("set"))
        for (const Json &s : sets->items())
            applyScenarioOverride(spec, s.str());

    // Memo key: the canonical *expanded* spec. Two requests that
    // differ in spelling but not meaning share the entry; cfg is
    // daemon-constant so it never enters the key.
    std::string key = scenarioCanonicalJson(spec);
    {
        std::lock_guard<std::mutex> lk(memoMu_);
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            {
                std::lock_guard<std::mutex> sk(statsMu_);
                memoHits_++;
            }
            return it->second;
        }
    }

    // The sweep's progress and cache lines are a terminal user's;
    // the daemon's log gets them only under --verbose.
    ScenarioResult res = runScenario(spec, cfg_, cache_.get(),
                                     opt_.verbose ? stderr : nullptr);
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("results",
             scenarioResultsJson(spec, res, /*accounting=*/false));
    std::string body = resp.dump(/*pretty=*/true);
    // The memo keeps its key for the daemon's lifetime: drop the
    // slack the dump's growth left (up to half the key).
    key.shrink_to_fit();
    std::lock_guard<std::mutex> lk(memoMu_);
    memo_.emplace(std::move(key), body);
    return body;
}

std::string
ServeDaemon::handleRequest(const std::string &body)
{
    auto t0 = std::chrono::steady_clock::now();
    std::string resp;
    bool ok = false;
    try {
        // Requests run with fatal() trapped: a bad spec value deep
        // in scenarioFromJson/runScenario surfaces here as an error
        // response instead of killing the daemon.
        FatalTrap trap;
        Json req;
        std::string err;
        if (!Json::parse(body, req, err))
            throw FatalError("bad request JSON: " + err);
        const Json *q = req.find("query");
        if (!q)
            throw FatalError("missing \"query\" "
                             "(scenario, list, stats)");
        std::string query = q->str();
        if (query == "scenario") {
            resp = handleScenario(req);
        } else if (query == "stats") {
            resp = handleStats();
        } else if (query == "list") {
            resp = handleList();
        } else {
            throw FatalError("unknown query '" + query +
                             "' (scenario, list, stats)");
        }
        ok = true;
    } catch (const std::exception &e) {
        resp = errorResponse(e.what());
    }
    double us = usSince(t0);
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        requests_++;
        (ok ? ok_ : errors_)++;
        serviceUs_.record(static_cast<Cycles>(us));
    }
    if (opt_.verbose)
        std::fprintf(stderr, "  [serve] %s in %.1f us\n",
                     ok ? "ok" : "error", us);
    return resp;
}

ServeStatsSnapshot
ServeDaemon::snapshot() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    ServeStatsSnapshot s;
    s.uptimeSec = usSince(started_) / 1e6;
    s.requests = requests_;
    s.ok = ok_;
    s.errors = errors_;
    s.memoHits = memoHits_;
    s.acceptErrors = acceptErrors_;
    s.readErrors = readErrors_;
    s.writeErrors = writeErrors_;
    if (!serviceUs_.empty()) {
        s.meanServiceUs = serviceUs_.mean();
        s.p95ServiceUs = serviceUs_.percentile(95.0);
    }
    if (cache_) {
        CacheStats cs = cache_->stats();
        s.cacheHits = cs.hits;
        s.cacheMisses = cs.misses;
    }
    return s;
}

void
ServeDaemon::serveConnection(int fd)
{
    // Read the whole request: until the client shuts down its write
    // side, or a newline arrives at the top of an already-complete
    // JSON... keeping it simple: EOF or the size cap ends the read,
    // and parse errors become error responses.
    std::string body;
    bool read_failed = false, too_large = false;
    for (;;) {
        if (FailpointHit hit = failpointEval("serve.read")) {
            if (hit.kind == FailpointHit::Kind::Err) {
                errno = hit.err;
                read_failed = true;
                break;
            }
        }
        char buf[4096];
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            read_failed = true;
            break;
        }
        if (n == 0)
            break;
        body.append(buf, static_cast<std::size_t>(n));
        if (body.size() > opt_.maxRequestBytes) {
            too_large = true;
            break;
        }
    }

    std::string resp;
    if (read_failed) {
        {
            std::lock_guard<std::mutex> lk(statsMu_);
            readErrors_++;
        }
        // Can't trust the request; answer an error anyway in case
        // the client's half of the socket still works.
        resp = errorResponse(std::string("read failed: ") +
                             std::strerror(errno));
    } else if (too_large) {
        resp = errorResponse("request exceeds " +
                             std::to_string(opt_.maxRequestBytes) +
                             " bytes");
    } else {
        resp = handleRequest(body);
    }
    resp += "\n";

    std::size_t off = 0;
    while (off < resp.size()) {
        std::size_t want = resp.size() - off;
        if (FailpointHit hit = failpointEval("serve.write")) {
            if (hit.kind == FailpointHit::Kind::Err) {
                std::lock_guard<std::mutex> lk(statsMu_);
                writeErrors_++;
                break;
            }
            if (hit.kind == FailpointHit::Kind::ShortWrite)
                want = std::min<std::size_t>(
                    want, std::max<std::uint64_t>(hit.arg, 1));
        }
        ssize_t n = ::write(fd, resp.data() + off, want);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            std::lock_guard<std::mutex> lk(statsMu_);
            writeErrors_++;
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
}

void
ServeDaemon::workerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lk(qMu_);
            qCv_.wait(lk, [&] {
                return !queue_.empty() || stopping_.load();
            });
            if (queue_.empty())
                return; // stopping, queue drained
            fd = queue_.front();
            queue_.erase(queue_.begin());
        }
        serveConnection(fd);
    }
}

int
ServeDaemon::run()
{
    ubik_assert(listenFd_ >= 0);
    unsigned n = opt_.threads ? opt_.threads : 2;
    for (unsigned i = 0; i < n; i++)
        workers_.emplace_back([this] { workerLoop(); });

    pollfd fds[2];
    fds[0] = {listenFd_, POLLIN, 0};
    fds[1] = {stopPipe_[0], POLLIN, 0};
    while (!stopping_.load()) {
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "  [serve] poll: %s\n",
                         std::strerror(errno));
            break;
        }
        if (fds[1].revents)
            break; // stop requested
        if (!(fds[0].revents & POLLIN))
            continue;
        int cfd = -1;
        if (FailpointHit hit = failpointEval("serve.accept")) {
            if (hit.kind == FailpointHit::Kind::Err) {
                // Consume the pending connection so the injected
                // error maps to "this client lost", not a busy loop
                // on the same readiness event.
                cfd = ::accept4(listenFd_, nullptr, nullptr,
                                SOCK_CLOEXEC);
                if (cfd >= 0)
                    ::close(cfd);
                std::lock_guard<std::mutex> lk(statsMu_);
                acceptErrors_++;
                continue;
            }
        }
        cfd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (cfd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            std::lock_guard<std::mutex> lk(statsMu_);
            acceptErrors_++;
            continue;
        }
        {
            std::lock_guard<std::mutex> lk(qMu_);
            queue_.push_back(cfd);
        }
        qCv_.notify_one();
    }

    // Graceful drain: no new accepts; queued and in-flight requests
    // finish; then the workers see (stopping && empty) and exit.
    stopping_.store(true);
    qCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(opt_.socketPath.c_str());
    if (opt_.verbose)
        std::fprintf(stderr, "  [serve] drained, exiting\n");
    return 0;
}

namespace {

std::atomic<int> g_serveStopFd{-1};

void
serveSignal(int)
{
    int fd = g_serveStopFd.load();
    if (fd >= 0) {
        char c = 's';
        (void)!::write(fd, &c, 1);
    }
}

} // namespace

int
serveMain(const ServeOptions &opt, const ExperimentConfig &cfg)
{
    ServeDaemon daemon(opt, cfg);
    std::string err;
    if (!daemon.start(&err))
        fatal("ubik_serve: %s", err.c_str());
    g_serveStopFd.store(daemon.stopFd());
    struct sigaction sa{};
    sa.sa_handler = serveSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
    std::fprintf(stderr, "  [serve] listening on %s (%u threads%s)\n",
                 opt.socketPath.c_str(),
                 opt.threads ? opt.threads : 2,
                 cfg.cacheDir.empty() ? ", no cache"
                                      : (", cache " + cfg.cacheDir)
                                            .c_str());
    int rc = daemon.run();
    g_serveStopFd.store(-1);
    return rc;
}

} // namespace ubik
