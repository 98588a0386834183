/**
 * @file
 * ubik_serve core: a long-lived scenario-query daemon over a unix
 * domain socket, answering from the warm ResultCache in milliseconds.
 *
 * Protocol: one JSON request per connection. The client writes a
 * single JSON object, shuts down its write side, and reads one JSON
 * response (newline-terminated) until EOF. Queries:
 *
 *   {"query": "scenario", "name": "fleet-utilization",
 *    "set": ["seeds=2"]}                  -> {"ok": true, "results": {...}}
 *   {"query": "scenario", "spec": {...}}  -> same, inline ScenarioSpec
 *   {"query": "list"}                     -> {"ok": true, "scenarios": [...]}
 *   {"query": "stats"}                    -> {"ok": true, "stats": {...}}
 *
 * The "results" member is byte-for-byte the document `ubik_run
 * --results` writes for the same spec and environment (both write it
 * with writeScenarioResults(), the daemon straight into its answer
 * after the "results" key), so a client can diff daemon answers
 * against direct runs — CI does.
 *
 * A malformed or invalid request never kills the daemon: request
 * handling runs under a FatalTrap (common/log.h), so the fatal()
 * paths that would exit a CLI tool become per-request
 * {"ok": false, "error": ...} responses. Repeated identical queries
 * are answered from an in-memory response memo without touching the
 * engine at all; the memo keeps at most kServeMemoBudgetBytes of
 * answers and evicts the least recently used first, so a daemon fed
 * fresh queries runs in flat memory. Other queries compute through
 * runScenario() (the normal sweep path) against the daemon's one
 * result cache (on disk under --cache-dir, else in memory) and warm
 * it for everyone else.
 *
 * Each accepted connection has kServeSocketTimeout to send its whole
 * request, and again to take its whole answer: a client that takes
 * longer, even one trickling a byte at a time, gets an error answer
 * (if it still reads) and its worker moves on.
 *
 * Failure injection: the accept/read/write paths evaluate the
 * serve.accept / serve.read / serve.write failpoint sites
 * (common/failpoint.h), and degrade per connection — an injected
 * socket error drops that one request, never the daemon.
 *
 * SIGTERM/SIGINT (via serveMain) request a graceful drain: stop
 * accepting, finish in-flight requests, unlink the socket, exit 0.
 */

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "sim/experiment.h"

namespace ubik {

class ResultCache;

struct ServeOptions
{
    std::string socketPath; ///< unix socket path (required)
    unsigned threads = 2;   ///< request worker threads
    bool verbose = false;   ///< per-request log lines to stderr
};

/** The response memo's budget: key plus body bytes of the answers
 *  it keeps, about 130 fig9 answers. */
constexpr std::size_t kServeMemoBudgetBytes = std::size_t{4} << 20;

/** Each accepted connection's deadline to send its whole request, and
 *  then to take its whole answer, counted from the start of each. A
 *  read or write past it counts as a read or write error and frees
 *  its worker, so a client that never finishes its request, sends it
 *  a byte at a time, or never reads the answer cannot hold a worker,
 *  or the drain, for good. */
constexpr std::chrono::milliseconds kServeSocketTimeout{2000};

/** The "stats" query's p95_service_us covers the last this many
 *  requests (its mean_service_us covers every request), so the
 *  daemon keeps a fixed 32 KiB of service times. */
constexpr std::size_t kServeServiceWindow = 4096;

/**
 * The daemon's response memo: canonical expanded spec -> response
 * body. It keeps at most kServeMemoBudgetBytes of keys plus bodies,
 * evicting the least recently used answer first; an answer larger
 * than the budget is not kept. Thread-safe.
 */
class ResponseMemo
{
  public:
    /** The body kept under `key`, now the most recently used. */
    std::optional<std::string> find(const std::string &key);

    /** Keep `body` under `key` unless it is kept already, evicting
     *  least recently used answers until the budget holds it. */
    void insert(std::string key, std::string body);

    struct Stats
    {
        std::uint64_t hits = 0;      ///< find() calls that found
        std::uint64_t bytes = 0;     ///< key plus body bytes kept
        std::uint64_t entries = 0;   ///< answers kept
        std::uint64_t evictions = 0; ///< answers evicted so far
    };
    Stats stats() const;

  private:
    struct Entry
    {
        std::string key, body;
    };

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< most recently used first
    /** Each kept key (viewing its entry's) -> its entry. */
    std::unordered_map<std::string_view, std::list<Entry>::iterator>
        index_;
    Stats stats_;
};

/** One consistent stats snapshot (the "stats" query's payload). */
struct ServeStatsSnapshot
{
    double uptimeSec = 0;
    std::uint64_t requests = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoBytes = 0;     ///< key plus body bytes memoized
    std::uint64_t memoEntries = 0;   ///< answers memoized
    std::uint64_t memoEvictions = 0; ///< answers the budget evicted
    std::uint64_t acceptErrors = 0;
    std::uint64_t readErrors = 0;
    std::uint64_t writeErrors = 0;
    double meanServiceUs = 0;
    double p95ServiceUs = 0;
    std::uint64_t cacheHits = 0;   ///< ResultCache counters
    std::uint64_t cacheMisses = 0;
};

class ServeDaemon
{
  public:
    /** `cfg` is the experiment environment every query runs under
     *  (scale, requests, cache dir, jobs). Without a cache dir the
     *  daemon keeps results in memory for its lifetime. */
    ServeDaemon(const ServeOptions &opt, const ExperimentConfig &cfg);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /** Bind + listen on the socket path (replacing a stale file).
     *  Returns false with `err` set instead of dying. */
    bool start(std::string *err);

    /** Accept/serve until requestStop(); returns the exit code.
     *  Unlinks the socket on the way out. */
    int run();

    /** Ask run() to drain and return. Safe from any thread; the
     *  signal path writes the self-pipe instead (see serveMain). */
    void requestStop();

    /** Handle one request body -> one response body (no trailing
     *  newline). Public so tests can drive the protocol without a
     *  socket; run() serves exactly this per connection. */
    std::string handleRequest(const std::string &body);

    /** Stats snapshot (what the "stats" query reports). */
    ServeStatsSnapshot snapshot() const;

    /** The self-pipe write end, for signal handlers. -1 before
     *  start(). */
    int stopFd() const { return stopPipe_[1]; }

  private:
    std::string handleScenario(const Json &req);
    std::string handleStats();
    std::string handleList();
    std::string errorResponse(const std::string &msg);
    void serveConnection(int fd);
    void workerLoop();

    ServeOptions opt_;
    ExperimentConfig cfg_;
    std::unique_ptr<ResultCache> cache_;

    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};

    // Connection queue feeding the worker threads.
    std::mutex qMu_;
    std::condition_variable qCv_;
    std::vector<int> queue_;
    std::vector<std::thread> workers_;

    ResponseMemo memo_;

    // Stats.
    mutable std::mutex statsMu_;
    std::chrono::steady_clock::time_point started_;
    std::uint64_t requests_ = 0, ok_ = 0, errors_ = 0;
    std::uint64_t acceptErrors_ = 0, readErrors_ = 0,
                  writeErrors_ = 0;
    /** Every request's service time, microseconds, summed. */
    double serviceSumUs_ = 0;
    /** The last kServeServiceWindow service times, microseconds;
     *  request r (0-based) lands in slot r % kServeServiceWindow. */
    std::array<Cycles, kServeServiceWindow> recentUs_{};
};

/** The ubik_serve server entry: install SIGTERM/SIGINT -> self-pipe
 *  handlers, start(), announce the socket on stderr, run(). */
int serveMain(const ServeOptions &opt, const ExperimentConfig &cfg);

} // namespace ubik
