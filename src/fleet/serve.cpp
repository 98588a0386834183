#include "fleet/serve.h"

#include <algorithm>
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
#include "stats/latency_recorder.h"

namespace ubik {

namespace {

/** Largest request body the daemon reads; a longer one is answered
 *  with an error. */
constexpr std::size_t kMaxRequestBytes = 1 << 20;

/** Microseconds since `t0`, as a double. */
double
usSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::optional<std::string>
ResponseMemo::find(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end())
        return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.hits++;
    return it->second->body;
}

void
ResponseMemo::insert(std::string key, std::string body)
{
    const std::size_t size = key.size() + body.size();
    if (size > kServeMemoBudgetBytes)
        return;
    // Kept until evicted: drop the slack the dumps' growth left.
    key.shrink_to_fit();
    body.shrink_to_fit();
    std::lock_guard<std::mutex> lk(mu_);
    if (index_.count(key))
        return; // a concurrent request kept the same answer first
    lru_.push_front(Entry{std::move(key), std::move(body)});
    index_.emplace(lru_.front().key, lru_.begin());
    stats_.bytes += size;
    // The new entry alone fits, so it is never the one evicted.
    while (stats_.bytes > kServeMemoBudgetBytes) {
        const Entry &old = lru_.back();
        stats_.bytes -= old.key.size() + old.body.size();
        stats_.evictions++;
        index_.erase(old.key);
        lru_.pop_back();
    }
}

ResponseMemo::Stats
ResponseMemo::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    Stats s = stats_;
    s.entries = lru_.size();
    return s;
}

ServeDaemon::ServeDaemon(const ServeOptions &opt,
                         const ExperimentConfig &cfg)
    : opt_(opt), cfg_(cfg), cache_(ResultCache::open(cfg_.cacheDir)),
      started_(std::chrono::steady_clock::now())
{
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
    std::string out;
    JsonWriter w(out, /*pretty=*/true);
    w.beginObject().member("ok", false).member("error", msg).endObject();
    return out;
}

std::string
ServeDaemon::handleStats()
{
    const ServeStatsSnapshot s = snapshot();
    std::string out;
    JsonWriter w(out, /*pretty=*/true);
    w.beginObject().member("ok", true);
    w.key("stats").beginObject();
    w.member("uptime_sec", s.uptimeSec);
    w.member("requests", s.requests);
    w.member("ok", s.ok);
    w.member("errors", s.errors);
    w.member("memo_hits", s.memoHits);
    w.member("memo_bytes", s.memoBytes);
    w.member("memo_budget_bytes", kServeMemoBudgetBytes);
    w.member("memo_entries", s.memoEntries);
    w.member("memo_evictions", s.memoEvictions);
    w.member("accept_errors", s.acceptErrors);
    w.member("read_errors", s.readErrors);
    w.member("write_errors", s.writeErrors);
    w.member("mean_service_us", s.meanServiceUs);
    w.member("p95_service_us", s.p95ServiceUs);
    w.member("cache_hits", s.cacheHits);
    w.member("cache_misses", s.cacheMisses);
    w.endObject().endObject();
    return out;
}

std::string
ServeDaemon::handleList()
{
    std::string out;
    JsonWriter w(out, /*pretty=*/true);
    w.beginObject().member("ok", true);
    w.key("scenarios").beginArray();
    for (const ScenarioSpec &s : ScenarioRegistry::instance().all())
        w.value(s.name);
    w.endArray().endObject();
    return out;
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
    if (std::optional<std::string> body = memo_.find(key))
        return std::move(*body);

    // The sweep's progress and cache lines are a terminal user's;
    // the daemon's log gets them only under --verbose.
    ScenarioResult res = runScenario(spec, cfg_, cache_.get(),
                                     opt_.verbose ? stderr : nullptr);
    std::string body;
    JsonWriter w(body, /*pretty=*/true);
    w.beginObject().member("ok", true).key("results");
    writeScenarioResults(w, spec, res, /*accounting=*/false);
    w.endObject();
    memo_.insert(std::move(key), body);
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
        const auto whole = static_cast<Cycles>(us);
        std::lock_guard<std::mutex> lk(statsMu_);
        recentUs_[requests_ % kServeServiceWindow] = whole;
        requests_++;
        (ok ? ok_ : errors_)++;
        serviceSumUs_ += static_cast<double>(whole);
    }
    if (opt_.verbose)
        std::fprintf(stderr, "  [serve] %s in %.1f us\n",
                     ok ? "ok" : "error", us);
    return resp;
}

ServeStatsSnapshot
ServeDaemon::snapshot() const
{
    const ResponseMemo::Stats memo = memo_.stats();
    ServeStatsSnapshot s;
    std::array<Cycles, kServeServiceWindow> recent{};
    std::size_t n = 0;
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        s.uptimeSec = usSince(started_) / 1e6;
        s.requests = requests_;
        s.ok = ok_;
        s.errors = errors_;
        s.acceptErrors = acceptErrors_;
        s.readErrors = readErrors_;
        s.writeErrors = writeErrors_;
        if (requests_ > 0)
            s.meanServiceUs =
                serviceSumUs_ / static_cast<double>(requests_);
        n = std::min<std::uint64_t>(requests_, kServeServiceWindow);
        recent = recentUs_;
    }
    s.memoHits = memo.hits;
    s.memoBytes = memo.bytes;
    s.memoEntries = memo.entries;
    s.memoEvictions = memo.evictions;
    // The first n slots hold the window (the ring fills them in order
    // before it wraps); select its p95 outside the lock.
    if (n > 0) {
        auto p95 = recent.begin() + (nearestRank(95.0, n) - 1);
        std::nth_element(recent.begin(), p95, recent.begin() + n);
        s.p95ServiceUs = static_cast<double>(*p95);
    }
    CacheStats cs = cache_->stats();
    s.cacheHits = cs.hits;
    s.cacheMisses = cs.misses;
    return s;
}

void
ServeDaemon::serveConnection(int fd)
{
    // The socket is non-blocking (accept4's SOCK_NONBLOCK): every read
    // and write first waits, through poll(), for what is left of its
    // phase's one deadline, so a client that trickles bytes times out
    // as surely as one that sends nothing.
    using Clock = std::chrono::steady_clock;
    const auto ms = kServeSocketTimeout.count();
    auto ready = [fd](short events, Clock::time_point deadline) {
        for (;;) {
            const auto left =
                std::chrono::ceil<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            if (left <= 0)
                return false;
            pollfd p{fd, events, 0};
            const int r = ::poll(&p, 1, static_cast<int>(left));
            // An error or hang-up is ready too: the read or write
            // that follows reports it.
            if (r > 0 || (r < 0 && errno != EINTR))
                return true;
        }
    };

    // Read the whole request: EOF (the client shut down its write
    // side) or the size cap ends the read, and parse errors become
    // error responses.
    std::string body;
    bool too_large = false;
    int read_errno = 0;
    const Clock::time_point read_deadline =
        Clock::now() + kServeSocketTimeout;
    for (;;) {
        if (FailpointHit hit = failpointEval("serve.read")) {
            if (hit.kind == FailpointHit::Kind::Err) {
                read_errno = hit.err;
                break;
            }
        }
        if (!ready(POLLIN, read_deadline)) {
            read_errno = ETIMEDOUT;
            break;
        }
        char buf[4096];
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            read_errno = errno;
            break;
        }
        if (n == 0)
            break;
        body.append(buf, static_cast<std::size_t>(n));
        if (body.size() > kMaxRequestBytes) {
            too_large = true;
            break;
        }
    }

    std::string resp;
    if (read_errno) {
        {
            std::lock_guard<std::mutex> lk(statsMu_);
            readErrors_++;
        }
        // Can't trust the request; answer an error anyway in case
        // the client's half of the socket still works.
        resp = errorResponse(
            read_errno == ETIMEDOUT
                ? "read timed out after " + std::to_string(ms) + " ms"
                : std::string("read failed: ") +
                      std::strerror(read_errno));
    } else if (too_large) {
        resp = errorResponse("request exceeds " +
                             std::to_string(kMaxRequestBytes) +
                             " bytes");
    } else {
        resp = handleRequest(body);
    }
    resp += "\n";

    std::size_t off = 0;
    const Clock::time_point write_deadline =
        Clock::now() + kServeSocketTimeout;
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
        ssize_t n = -1;
        if (ready(POLLOUT, write_deadline)) {
            n = ::write(fd, resp.data() + off, want);
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
        }
        if (n < 0) {
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
        cfd = ::accept4(listenFd_, nullptr, nullptr,
                        SOCK_CLOEXEC | SOCK_NONBLOCK);
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
                 cfg.cacheDir.empty() ? ", cache in memory"
                                      : (", cache " + cfg.cacheDir)
                                            .c_str());
    int rc = daemon.run();
    g_serveStopFd.store(-1);
    return rc;
}

} // namespace ubik
