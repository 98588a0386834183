#include "sim/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/hex.h"
#include "common/log.h"
#include "common/retry.h"
#include "queueing/queue_sim.h"

namespace ubik {

namespace {

// ---------------------------------------------------------------------------
// Canonical encoding primitives
// ---------------------------------------------------------------------------

std::uint64_t
fnvFold(std::uint64_t h, std::string_view s)
{
    return fnv1a64Bytes(
        h, reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

/** Decimal text of `v`, appended. */
void
appendDec(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** Strict base-10 field: digits only, no sign or space. */
bool
parseDec(std::string_view s, std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    auto r = std::from_chars(s.data(), end, out);
    return r.ec == std::errc() && r.ptr == end;
}

/** Walks the `sep`-separated fields of a record or payload in place. */
class Fields
{
  public:
    Fields(std::string_view s, char sep) : rest_(s), sep_(sep) {}

    /** The next field; false once every field was taken. */
    bool next(std::string_view &field)
    {
        if (done_)
            return false;
        std::size_t i = rest_.find(sep_);
        if (i == std::string_view::npos) {
            field = rest_;
            done_ = true;
        } else {
            field = rest_.substr(0, i);
            rest_.remove_prefix(i + 1);
        }
        return true;
    }

    bool nextHex(std::uint64_t &v)
    {
        std::string_view f;
        return next(f) && parseHex64(f, v);
    }

    bool nextHexDouble(double &v)
    {
        std::string_view f;
        return next(f) && parseHexDouble(f, v);
    }

    /** True once every field was taken. */
    bool done() const { return done_; }

    /** Fields not yet taken. */
    std::size_t remaining() const
    {
        if (done_)
            return 0;
        return 1 + static_cast<std::size_t>(
                       std::count(rest_.begin(), rest_.end(), sep_));
    }

  private:
    std::string_view rest_;
    char sep_;
    bool done_ = false;
};

void
addExperiment(KeyBuilder &kb, const ExperimentConfig &cfg, bool ooo)
{
    kb.add("scale", cfg.scale)
        .add("roi", cfg.roiRequests)
        .add("warmup", cfg.warmupRequests)
        .add("ooo", ooo);
}

void
addLcApp(KeyBuilder &kb, const LcAppParams &p)
{
    kb.add("lc.apki", p.apki)
        .add("lc.work", p.work.canonical())
        .add("lc.hotLines", p.hotLines)
        .add("lc.hotTheta", p.hotTheta)
        .add("lc.hotFrac", p.hotFrac)
        .add("lc.reqLines", p.reqLines)
        .add("lc.mlp", p.mlp)
        .add("lc.baseIpc", p.baseIpc)
        .add("lc.requests", p.requests);
}

void
addBatchApp(KeyBuilder &kb, const BatchAppParams &p, int i)
{
    const char prefix[] = {'b', static_cast<char>('0' + i), '.'};
    kb.scope(std::string_view(prefix, sizeof prefix))
        .add("cls", enumName(p.cls))
        .add("apki", p.apki)
        .add("wsLines", p.wsLines)
        .add("theta", p.theta)
        .add("mlp", p.mlp)
        .add("baseIpc", p.baseIpc)
        .scope({});
}

/** An LC baseline's inputs: lcBaselineKey's fields after the kind. */
void
addLcBaseline(KeyBuilder &kb, const ExperimentConfig &cfg,
              const LcAppParams &params, double load, std::uint64_t seed,
              bool ooo)
{
    addExperiment(kb, cfg, ooo);
    addLcApp(kb, params);
    kb.add("lc.load", load);
    kb.add("seed", seed);
}

// ---------------------------------------------------------------------------
// Payload serialization (comma-joined tokens, doubles bit-exact)
// ---------------------------------------------------------------------------

std::string
serializeMix(const MixRunResult &r)
{
    std::string out;
    out.reserve(17 * (8 + r.batchSpeedups.size()) + 4);
    for (double d : {r.lcTailMean, r.tailDegradation, r.meanDegradation,
                     r.weightedSpeedup}) {
        appendHex64(out, doubleBits(d));
        out += ',';
    }
    appendDec(out, r.batchSpeedups.size());
    for (double s : r.batchSpeedups) {
        out += ',';
        appendHex64(out, doubleBits(s));
    }
    for (std::uint64_t v : {r.ubikDeboosts, r.ubikDeadlineDeboosts,
                            r.ubikWatermarks}) {
        out += ',';
        appendHex64(out, v);
    }
    return out;
}

bool
parseMix(std::string_view payload, MixRunResult &out)
{
    Fields f(payload, ',');
    MixRunResult r;
    std::string_view count;
    std::uint64_t n;
    if (!f.nextHexDouble(r.lcTailMean) ||
        !f.nextHexDouble(r.tailDegradation) ||
        !f.nextHexDouble(r.meanDegradation) ||
        !f.nextHexDouble(r.weightedSpeedup) || !f.next(count) ||
        !parseDec(count, n))
        return false;
    // n speedups, then the three Ubik counters.
    const std::size_t rest = f.remaining();
    if (rest < 3 || n != rest - 3)
        return false;
    r.batchSpeedups.resize(n);
    for (double &s : r.batchSpeedups)
        if (!f.nextHexDouble(s))
            return false;
    if (!f.nextHex(r.ubikDeboosts) ||
        !f.nextHex(r.ubikDeadlineDeboosts) ||
        !f.nextHex(r.ubikWatermarks))
        return false;
    out = std::move(r);
    return true;
}

std::string
serializeLcBaseline(const LcBaseline &b)
{
    std::string out;
    out.reserve(17 * 5);
    for (double d : {b.meanServiceCycles, b.meanInterarrival,
                     b.meanLatency, b.tailMean}) {
        appendHex64(out, doubleBits(d));
        out += ',';
    }
    appendHex64(out, b.p95);
    return out;
}

bool
parseLcBaseline(std::string_view payload, LcBaseline &out)
{
    Fields f(payload, ',');
    LcBaseline b;
    if (!f.nextHexDouble(b.meanServiceCycles) ||
        !f.nextHexDouble(b.meanInterarrival) ||
        !f.nextHexDouble(b.meanLatency) ||
        !f.nextHexDouble(b.tailMean) || !f.nextHex(b.p95) || !f.done())
        return false;
    out = b;
    return true;
}

bool
parseDouble(std::string_view payload, double &out)
{
    return parseHexDouble(payload, out);
}

std::string
serializeAdvice(const AdvisorVerdict &v)
{
    std::string out;
    out.reserve(2 + 17 * 2);
    out += v.canDownsize ? '1' : '0';
    out += ',';
    appendHex64(out, v.freedLines);
    out += ',';
    appendHex64(out, doubleBits(v.transientCycles));
    return out;
}

bool
parseAdvice(std::string_view payload, AdvisorVerdict &out)
{
    Fields f(payload, ',');
    AdvisorVerdict v;
    std::string_view flag;
    if (!f.next(flag) || (flag != "0" && flag != "1") ||
        !f.nextHex(v.freedLines) || !f.nextHexDouble(v.transientCycles) ||
        !f.done())
        return false;
    v.canDownsize = flag == "1";
    out = v;
    return true;
}

/** Extension of every cache file: the current log, and the stale
 *  files an open removes. */
constexpr char kCacheFileExt[] = ".ubikcache";

/** File name of the log: the schema lives in it, not in its
 *  records. */
std::string
logName()
{
    return "results.v" + std::to_string(kResultCacheSchemaVersion) +
           kCacheFileExt;
}

/**
 * Remove every `*.ubikcache` file in `dir` but `keep`, without reading
 * it: other schemas' logs and the older per-hash shard files. A file
 * that cannot be removed stays. Returns how many went.
 */
std::uint64_t
removeStaleFiles(const std::string &dir, const std::string &keep)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> stale;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const fs::path &p = it->path();
        std::error_code typeEc;
        if (p.extension() == kCacheFileExt && p.filename() != keep &&
            it->is_regular_file(typeEc))
            stale.push_back(p);
    }
    std::uint64_t removed = 0;
    for (const fs::path &p : stale)
        removed += fs::remove(p, ec);
    return removed;
}

/**
 * The bytes of `path` from `offset` to its length now, in one read
 * into a string sized from that length (records appended later wait
 * for the next read). False if the file cannot be opened.
 */
bool
readFrom(const std::string &path, std::uint64_t offset, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st;
    std::size_t got = 0;
    if (::fstat(fd, &st) == 0 &&
        static_cast<std::uint64_t>(st.st_size) > offset) {
        out.resize(static_cast<std::size_t>(
            static_cast<std::uint64_t>(st.st_size) - offset));
        while (got < out.size()) {
            const ssize_t n =
                ::pread(fd, out.data() + got, out.size() - got,
                        static_cast<off_t>(offset + got));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            got += static_cast<std::size_t>(n);
        }
    }
    out.resize(got);
    ::close(fd);
    return true;
}

/** How one append attempt ended. */
enum class AppendOutcome
{
    Ok,   ///< the full record (and newline) reached the stream
    Torn, ///< injected crash mid-record: bytes partially on disk
    Err,  ///< persistent failure after bounded retries
};

/**
 * Write all of `line` to the O_APPEND descriptor `fd`, one write(2)
 * per attempt, so a whole record lands at the end of the log in one
 * piece: a peer's record can precede or follow it, never split it.
 * Short writes (real or injected) retry the remainder; zero-progress
 * attempts burn bounded backoff attempts, partial progress retries
 * immediately. Counts every extra attempt in `retries`.
 */
AppendOutcome
appendAll(int fd, const std::string &line,
          std::atomic<std::uint64_t> &retries)
{
    std::size_t done = 0;
    RetryBackoff backoff(0x5afec0deull, 0);
    for (;;) {
        std::size_t want = line.size() - done;
        FailpointHit hit = failpointEval("cache.append");
        ssize_t wrote = 0;
        if (hit.kind == FailpointHit::Kind::Err) {
            errno = hit.err; // simulated device error: nothing written
        } else {
            if (hit.kind == FailpointHit::Kind::ShortWrite ||
                hit.kind == FailpointHit::Kind::Torn)
                want = std::min<std::uint64_t>(hit.arg, want);
            wrote = ::write(fd, line.data() + done, want);
            // Simulated crash: whatever made it out stays, the writer
            // never comes back for the rest.
            if (hit.kind == FailpointHit::Kind::Torn)
                return AppendOutcome::Torn;
        }
        if (wrote > 0)
            done += static_cast<std::size_t>(wrote);
        if (done == line.size())
            return AppendOutcome::Ok;
        retries.fetch_add(1, std::memory_order_relaxed);
        if (wrote > 0)
            continue; // partial progress: retry the remainder now
        if (!backoff.next())
            return AppendOutcome::Err;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

KeyBuilder::KeyBuilder(const char *what, std::uint32_t schema)
{
    out_.reserve(2048);
    out_ += 'v';
    appendDec(out_, schema);
    out_ += '|';
    out_ += what;
}

KeyBuilder &
KeyBuilder::add(std::string_view name, std::string_view v)
{
    ubik_assert(v.find_first_of("|=") == std::string_view::npos);
    return put(name, v);
}

KeyBuilder &
KeyBuilder::add(std::string_view name, std::uint64_t v)
{
    char buf[20];
    char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return put(name, std::string_view(buf, end - buf));
}

KeyBuilder &
KeyBuilder::add(std::string_view name, bool v)
{
    return put(name, v ? "1" : "0");
}

KeyBuilder &
KeyBuilder::add(std::string_view name, double v)
{
    char buf[16];
    writeHex64(buf, doubleBits(v));
    return put(name, std::string_view(buf, sizeof buf));
}

KeyBuilder &
KeyBuilder::put(std::string_view name, std::string_view value)
{
    out_ += '|';
    out_ += scope_;
    out_ += name;
    out_ += '=';
    out_ += value;
    return *this;
}

std::string
mixResultKey(const ExperimentConfig &cfg, const MixSpec &mix,
             const SchemeUnderTest &sut, std::uint64_t seed,
             bool out_of_order, std::uint32_t schema)
{
    return joinMixKey(mixKeyHead(cfg, out_of_order, schema),
                      mixKeyPart(mix), schemeKeyPart(sut), seed);
}

std::string
mixKeyHead(const ExperimentConfig &cfg, bool out_of_order,
           std::uint32_t schema)
{
    KeyBuilder kb("mix", schema);
    addExperiment(kb, cfg, out_of_order);
    return kb.take();
}

std::string
mixKeyPart(const MixSpec &mix)
{
    KeyBuilder kb;
    addLcApp(kb, mix.lc.app);
    kb.add("lc.load", mix.lc.load);
    // Canonical profile string (kind + kind-relevant parameters as
    // exact bit patterns): a constant profile keys as "constant", and
    // any parameter change is a different key.
    kb.add("lc.profile", mix.lc.profile.canonical());
    // Trace-backed mixes key on the traces' logical content, so an
    // edited trace (or a different per-instance assignment) never
    // serves a stale result, while re-encoding the same records
    // (v1 -> v2 conversion, rechunking) still hits.
    kb.add("lc.ntraces",
           static_cast<std::uint64_t>(mix.lc.traces.size()));
    for (std::size_t i = 0; i < mix.lc.traces.size(); i++)
        kb.add("lc.trace" + std::to_string(i),
               mix.lc.traces[i]->contentHash());
    for (int i = 0; i < 3; i++)
        addBatchApp(kb, mix.batch.apps[static_cast<std::size_t>(i)], i);
    // Batch replay mirrors lc.traces: content-hash keyed, so a
    // re-encoded trace still hits and an edited one never does.
    kb.add("batch.ntraces",
           static_cast<std::uint64_t>(mix.batch.traces.size()));
    for (std::size_t i = 0; i < mix.batch.traces.size(); i++)
        kb.add("batch.trace" + std::to_string(i),
               mix.batch.traces[i]->contentHash());
    return kb.take();
}

std::string
schemeKeyPart(const SchemeUnderTest &sut)
{
    KeyBuilder kb;
    kb.add("sut.scheme", enumName(sut.scheme))
        .add("sut.array", enumName(sut.array))
        .add("sut.policy", enumName(sut.policy))
        .add("sut.slack", sut.slack)
        .add("ubik.idleOptions", sut.ubik.idleOptions)
        .add("ubik.deboostGuard", sut.ubik.deboostGuard)
        .add("ubik.accurateDeboost", sut.ubik.accurateDeboost)
        .add("sut.reconfigScale", sut.reconfigScale)
        .add("sut.mem", enumName(sut.mem))
        .add("mem.channels", sut.memParams.channels)
        .add("mem.channelOccupancy", sut.memParams.channelOccupancy);
    return kb.take();
}

std::string
joinMixKey(std::string_view head, std::string_view mix,
           std::string_view scheme, std::uint64_t seed)
{
    // The field KeyBuilder::add("seed", seed) appends.
    constexpr std::string_view kSeed = "|seed=";
    char buf[20];
    const std::string_view dec(
        buf, std::to_chars(buf, buf + sizeof buf, seed).ptr - buf);
    std::string key;
    key.reserve(head.size() + mix.size() + scheme.size() + kSeed.size() +
                dec.size());
    key.append(head).append(mix).append(scheme).append(kSeed).append(dec);
    return key;
}

std::string
lcBaselineKey(const ExperimentConfig &cfg, const LcAppParams &params,
              double load, std::uint64_t seed, bool out_of_order,
              std::uint32_t schema)
{
    KeyBuilder kb("lcbase", schema);
    addLcBaseline(kb, cfg, params, load, seed, out_of_order);
    return kb.take();
}

std::string
batchBaselineKey(const ExperimentConfig &cfg,
                 const BatchAppParams &params, std::uint64_t seed,
                 bool out_of_order, std::uint32_t schema)
{
    KeyBuilder kb("batchbase", schema);
    addExperiment(kb, cfg, out_of_order);
    addBatchApp(kb, params, 0);
    kb.add("seed", seed);
    return kb.take();
}

std::string
queueTailKey(const QueueSimParams &qp, std::uint64_t seed, double pct,
             std::uint32_t schema)
{
    KeyBuilder kb("qtail", schema);
    kb.add("workers", qp.workers)
        .add("interarrival", qp.meanInterarrival)
        .add("service", qp.service.canonical())
        .add("requests", qp.requests)
        .add("warmup", qp.warmup)
        .add("interference", qp.interferenceFactor)
        .add("abortProb", qp.abortProb)
        .add("maxAborts", qp.maxAborts)
        .add("seed", seed)
        .add("pct", pct);
    return kb.take();
}

std::string
advisorKey(const ExperimentConfig &cfg, const LcAppParams &params,
           double load, bool out_of_order, std::uint32_t schema)
{
    KeyBuilder kb("advice", schema);
    addLcBaseline(kb, cfg, params, load, kAdvisorBaselineSeed,
                  out_of_order);
    kb.add("traceRequests", kAdvisorTraceRequests)
        .add("traceSeed", kAdvisorTraceSeed)
        .add("curvePoints", kAdvisorCurvePoints);
    return kb.take();
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

/** Every loaded record, key -> payload. Never iterated. */
struct ResultCache::Index
{
    std::shared_mutex mu;
    std::unordered_map<std::string, std::string> records;
};

ResultCache::ResultCache(std::string dir)
    : dir_(std::move(dir)), index_(new Index)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (!std::filesystem::is_directory(dir_)) {
        warn("result cache: cannot create '%s' (%s); results kept in "
             "memory for this run",
             dir_.c_str(), ec.message().c_str());
        dir_.clear();
        return;
    }
    const std::string name = logName();
    logPath_ = dir_ + "/" + name;
    evicted_ = removeStaleFiles(dir_, name);
}

ResultCache::~ResultCache() = default;

std::unique_ptr<ResultCache>
ResultCache::open(const std::string &dir)
{
    return std::make_unique<ResultCache>(dir);
}

void
ResultCache::refreshLocked()
{
    loaded_ = true;
    if (!persistent())
        return;
    // A failed refresh leaves a stale view: subsequent lookups can
    // miss on records that are actually on disk, costing a duplicate
    // compute of a deterministic value — never a wrong result.
    if (failpointEval("cache.refresh").kind ==
        FailpointHit::Kind::Err) {
        refreshDegraded_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::string buf;
    if (!readFrom(logPath_, parsedBytes_, buf))
        return; // nothing persisted yet

    // The last record of a key wins, as store() replaces it in
    // memory: a checksum-valid record whose payload no longer decodes
    // is then hidden by its repair, appended after it. Duplicates
    // from racing appends or merged logs carry the same deterministic
    // value anyway.
    std::unique_lock<std::shared_mutex> lock(index_->mu);
    // Whether `line` is a whole, checksum-valid record; indexes it.
    auto parse = [&](std::string_view line) {
        // <key> <payload> <crc>, the crc covering `<key> <payload>`
        Fields f(line, ' ');
        std::string_view key, payload, crcText;
        std::uint64_t crc;
        if (!f.next(key) || !f.next(payload) || !f.next(crcText) ||
            !f.done() || !parseHex64(crcText, crc))
            return false;
        const std::size_t body = key.size() + 1 + payload.size();
        if (crc != fnvFold(kFnvOffsetBasis, line.substr(0, body)))
            return false;
        index_->records.insert_or_assign(std::string(key),
                                         std::string(payload));
        return true;
    };

    const std::uint64_t base = parsedBytes_;
    const std::string_view all(buf);
    std::size_t start = 0;
    while (start < all.size()) {
        std::size_t nl = all.find('\n', start);
        bool terminated = nl != std::string_view::npos;
        std::string_view line =
            all.substr(start, (terminated ? nl : all.size()) - start);
        std::uint64_t off = base + start;
        if (terminated) {
            if (!line.empty() && !parse(line) && off != tornCountedAt_)
                corrupt_.fetch_add(1, std::memory_order_relaxed);
            if (off == tornCountedAt_)
                tornCountedAt_ = ~0ull; // the torn tail completed
            parsedBytes_ = base + nl + 1;
            start = nl + 1;
            continue;
        }
        // Unterminated tail: a writer may be mid-append.
        if (parse(line)) {
            // Checksum-complete record that only lacks its trailing
            // newline: consume it.
            parsedBytes_ = base + all.size();
        } else if (off != tornCountedAt_) {
            // Leave it unconsumed so the next refresh re-examines it
            // once it completes; count it corrupt only once (it may
            // be a crashed writer's permanent stump, re-seen by every
            // poll until the next store's newline repair).
            corrupt_.fetch_add(1, std::memory_order_relaxed);
            tornCountedAt_ = off;
        }
        break;
    }
}

template <typename T>
std::optional<T>
ResultCache::lookup(const std::string &key, bool refresh,
                    bool (*decode)(std::string_view, T &))
{
    std::optional<T> out;
    // Whether the key is indexed; decodes its payload into `out`.
    auto find = [&] {
        std::shared_lock<std::shared_mutex> lock(index_->mu);
        auto it = index_->records.find(key);
        if (it == index_->records.end())
            return false;
        if (!decode(it->second, out.emplace())) {
            out.reset();
            corrupt_.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
    };
    if (refresh || !find()) {
        std::lock_guard<std::mutex> lock(logMu_);
        if (refresh || !loaded_)
            refreshLocked();
        // Again, also after no refresh: a store may have indexed the
        // key since the first look.
        find();
    }
    return out;
}

void
ResultCache::countLookup(bool hit, bool mix)
{
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    if (mix)
        (hit ? mixHits_ : mixMisses_)
            .fetch_add(1, std::memory_order_relaxed);
}

template <typename T>
std::optional<T>
ResultCache::load(const std::string &key,
                  bool (*decode)(std::string_view, T &), bool mix)
{
    std::optional<T> out = lookup(key, /*refresh=*/false, decode);
    countLookup(out.has_value(), mix);
    return out;
}

void
ResultCache::store(const std::string &key, const std::string &payload)
{
    // A record is `<key> <payload> <crc>` on one line, unescaped.
    ubik_assert(key.find_first_of(" \n") == std::string::npos);
    ubik_assert(payload.find_first_of(" \n") == std::string::npos);
    std::lock_guard<std::mutex> lock(logMu_);
    // Full refresh (not just first-load): a cooperating process may
    // have appended this very record since we last looked, and
    // skipping the duplicate append keeps the log minimal.
    refreshLocked();
    {
        std::shared_lock<std::shared_mutex> ilock(index_->mu);
        auto it = index_->records.find(key);
        if (it != index_->records.end() && it->second == payload)
            return; // already persisted (a racing process beat us)
    }
    if (persistent())
        append(key, payload);
    {
        std::unique_lock<std::shared_mutex> ilock(index_->mu);
        index_->records.insert_or_assign(key, payload);
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

void
ResultCache::append(const std::string &key, const std::string &payload)
{
    std::string line;
    line.reserve(key.size() + payload.size() + 19);
    line += key;
    line += ' ';
    line += payload;
    const std::uint64_t crc = fnvFold(kFnvOffsetBasis, line);
    line += ' ';
    appendHex64(line, crc);
    line += '\n';
    // One write(2) per record on an O_APPEND descriptor: concurrent
    // processes interleave whole records (a crashed writer's torn
    // tail fails its checksum and reads as a miss). Persistence
    // failures degrade, never kill: the in-memory entry is kept
    // either way, so this worker still serves its own result and only
    // peers pay a recompute.
    int fd = -1;
    RetryBackoff openRetry(0x0be7c0deull, 0);
    for (;;) {
        FailpointHit hit = failpointEval("cache.open");
        if (hit.kind == FailpointHit::Kind::Err) {
            errno = hit.err;
        } else {
            fd = ::open(logPath_.c_str(),
                        O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
        }
        if (fd >= 0 || !openRetry.next())
            break;
    }
    bool persisted = false;
    if (fd >= 0) {
        // A crashed writer can leave a torn tail with no newline;
        // gluing this record onto it would corrupt both. Start a
        // fresh line instead (the blank line is skipped on load).
        struct stat st;
        char last = '\n';
        if (::fstat(fd, &st) == 0 && st.st_size > 0 &&
            ::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n')
            line.insert(0, 1, '\n');
        AppendOutcome out = appendAll(fd, line, appendRetries_);
        persisted = out == AppendOutcome::Ok;
        if (persisted && durable_) {
            // Fleet mode: the claim protocol treats "lease released"
            // as "result survives a crash", so the record must be on
            // disk before the caller drops its lease.
            int rc;
            FailpointHit fs = failpointEval("cache.fsync");
            if (fs.kind == FailpointHit::Kind::Err) {
                errno = fs.err;
                rc = -1;
            } else {
                rc = ::fsync(fd);
            }
            if (rc != 0) {
                // The record is appended but its crash-survival
                // guarantee is weakened; peers re-verify via checksum
                // anyway, so degrade rather than die.
                fsyncDegraded_.fetch_add(1,
                                         std::memory_order_relaxed);
                if (!fsyncWarned_.exchange(true))
                    warn("result cache: fsync failed on %s (%s); "
                         "records may not survive a crash",
                         logPath_.c_str(),
                         std::strerror(errno));
            }
        }
        ::close(fd);
    }
    if (!persisted) {
        storesDropped_.fetch_add(1, std::memory_order_relaxed);
        if (!appendWarned_.exchange(true))
            warn("result cache: cannot append to %s (%s); continuing "
                 "uncached — this worker keeps its results in memory",
                 logPath_.c_str(), std::strerror(errno));
    }
}

std::optional<MixRunResult>
ResultCache::loadMix(const std::string &key)
{
    return load(key, parseMix, /*mix=*/true);
}

void
ResultCache::storeMix(const std::string &key, const MixRunResult &res)
{
    store(key, serializeMix(res));
}

std::optional<MixRunResult>
ResultCache::peekMix(const std::string &key)
{
    // Never a miss: a fleet worker may peek the same key many times
    // while a peer computes it, and that polling is not recomputation
    // (the "0 misses" warm-sweep invariant must survive fleet mode).
    std::optional<MixRunResult> out =
        lookup(key, /*refresh=*/true, parseMix);
    if (out)
        countLookup(true, /*mix=*/true);
    return out;
}

bool
ResultCache::has(const std::string &key)
{
    // Unconditional refresh: the point of a probe is seeing what
    // cooperating processes appended since the log was last read.
    return lookup<bool>(key, /*refresh=*/true,
                        [](std::string_view, bool &) { return true; })
        .has_value();
}

std::optional<LcBaseline>
ResultCache::loadLcBaseline(const std::string &key)
{
    return load(key, parseLcBaseline, /*mix=*/false);
}

void
ResultCache::storeLcBaseline(const std::string &key,
                             const LcBaseline &base)
{
    store(key, serializeLcBaseline(base));
}

std::optional<double>
ResultCache::loadDouble(const std::string &key)
{
    return load(key, parseDouble, /*mix=*/false);
}

void
ResultCache::storeDouble(const std::string &key, double v)
{
    store(key, hexDouble(v));
}

std::optional<AdvisorVerdict>
ResultCache::loadAdvice(const std::string &key)
{
    return load(key, parseAdvice, /*mix=*/false);
}

void
ResultCache::storeAdvice(const std::string &key, const AdvisorVerdict &v)
{
    store(key, serializeAdvice(v));
}

CacheStats
ResultCache::stats() const
{
    CacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.stores = stores_.load(std::memory_order_relaxed);
    st.mixHits = mixHits_.load(std::memory_order_relaxed);
    st.mixMisses = mixMisses_.load(std::memory_order_relaxed);
    st.evicted = evicted_;
    st.corrupt = corrupt_.load(std::memory_order_relaxed);
    st.appendRetries =
        appendRetries_.load(std::memory_order_relaxed);
    st.storesDropped =
        storesDropped_.load(std::memory_order_relaxed);
    st.fsyncDegraded =
        fsyncDegraded_.load(std::memory_order_relaxed);
    st.refreshDegraded =
        refreshDegraded_.load(std::memory_order_relaxed);
    return st;
}

} // namespace ubik
