#include "sim/result_cache.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/hex.h"
#include "common/log.h"
#include "common/retry.h"
#include "sim/claim_store.h"

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

/** Record checksum: FNV-1a over the unescaped fields joined by an
 *  unambiguous separator that cannot appear inside them post-escape
 *  (kind 0x1f key 0x1f payload). */
std::uint64_t
recordChecksum(char kind, std::string_view key, std::string_view payload)
{
    const char sep = '\x1f';
    std::uint64_t h = fnvFold(kFnvOffsetBasis, std::string_view(&kind, 1));
    h = fnvFold(h, std::string_view(&sep, 1));
    h = fnvFold(h, key);
    h = fnvFold(h, std::string_view(&sep, 1));
    return fnvFold(h, payload);
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

/** Append `s` made safe as one space-separated record token. */
void
appendEscapedToken(std::string &out, std::string_view s)
{
    for (char c : s) {
        if (c == ' ' || c == '%' || c == '\n' || c == '\r' ||
            c == '\t' || c == '\0') {
            static constexpr char kHex[] = "0123456789ABCDEF";
            auto u = static_cast<unsigned char>(c);
            const char esc[3] = {'%', kHex[u >> 4], kHex[u & 15]};
            out.append(esc, sizeof esc);
        } else {
            out += c;
        }
    }
}

bool
unescapeToken(std::string_view s, std::string &out)
{
    out.clear();
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); i++) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        int hi = hexDigitValue(s[i + 1]), lo = hexDigitValue(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
    }
    return true;
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

/**
 * Builds the canonical `v<schema>|name=value|...` key string, each
 * field appended in place.
 */
class KeyBuilder
{
  public:
    explicit KeyBuilder(const char *what, std::uint32_t schema)
    {
        out_.reserve(2048);
        out_ += 'v';
        appendDec(out_, schema);
        out_ += '|';
        out_ += what;
    }

    /** Prefix for the names of the fields added next ("b0."). */
    KeyBuilder &scope(std::string_view prefix)
    {
        scope_ = prefix;
        return *this;
    }

    /** A string field. '|' and '=' structure the key and '%'
     *  escapes; nothing else needs quoting (spaces are handled at the
     *  record layer). */
    KeyBuilder &add(std::string_view name, std::string_view v)
    {
        if (std::none_of(v.begin(), v.end(), [](char c) {
                return c == '|' || c == '=' || c == '%';
            }))
            return put(name, v);
        std::string esc;
        for (char c : v) {
            if (c == '|')
                esc += "%7C";
            else if (c == '=')
                esc += "%3D";
            else if (c == '%')
                esc += "%25";
            else
                esc += c;
        }
        return put(name, esc);
    }

    KeyBuilder &add(std::string_view name, const std::string &v)
    {
        return add(name, std::string_view(v));
    }

    KeyBuilder &add(std::string_view name, const char *v)
    {
        return add(name, std::string_view(v));
    }

    KeyBuilder &add(std::string_view name, std::uint64_t v)
    {
        char buf[20];
        char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        return put(name, std::string_view(buf, end - buf));
    }

    KeyBuilder &add(std::string_view name, std::uint32_t v)
    {
        return add(name, static_cast<std::uint64_t>(v));
    }

    KeyBuilder &add(std::string_view name, int v)
    {
        char buf[12];
        char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        return put(name, std::string_view(buf, end - buf));
    }

    KeyBuilder &add(std::string_view name, bool v)
    {
        return put(name, v ? "1" : "0");
    }

    /** Doubles key as their exact bit pattern. */
    KeyBuilder &add(std::string_view name, double v)
    {
        char buf[16];
        writeHex64(buf, doubleBits(v));
        return put(name, std::string_view(buf, sizeof buf));
    }

    std::string take() { return std::move(out_); }

  private:
    /** Append "|<scope><name>=<value>" (value already escaped). */
    KeyBuilder &put(std::string_view name, std::string_view value)
    {
        out_ += '|';
        out_ += scope_;
        out_ += name;
        out_ += '=';
        out_ += value;
        return *this;
    }

    std::string out_;
    std::string_view scope_;
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
    kb.add("lc.name", p.name)
        .add("lc.apki", p.apki)
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
        .add("name", p.name)
        .add("cls", enumName(p.cls))
        .add("apki", p.apki)
        .add("wsLines", p.wsLines)
        .add("theta", p.theta)
        .add("mlp", p.mlp)
        .add("baseIpc", p.baseIpc)
        .scope({});
}

void
addScheme(KeyBuilder &kb, const SchemeUnderTest &sut)
{
    kb.add("sut.label", sut.label)
        .add("sut.scheme", enumName(sut.scheme))
        .add("sut.array", enumName(sut.array))
        .add("sut.policy", enumName(sut.policy))
        .add("sut.slack", sut.slack)
        .add("ubik.slack", sut.ubik.slack)
        .add("ubik.idleOptions", sut.ubik.idleOptions)
        .add("ubik.deboostGuard", sut.ubik.deboostGuard)
        .add("ubik.slackGain", sut.ubik.slackGain)
        .add("ubik.dutyAlpha", sut.ubik.dutyAlpha)
        .add("ubik.accurateDeboost", sut.ubik.accurateDeboost)
        .add("sut.reconfigScale", sut.reconfigScale)
        .add("sut.mem", enumName(sut.mem))
        .add("mem.baseLatency", sut.memParams.baseLatency)
        .add("mem.channels", sut.memParams.channels)
        .add("mem.channelOccupancy", sut.memParams.channelOccupancy)
        .add("sut.lcMemShare", sut.lcMemShare);
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
parseBatchIpc(std::string_view payload, double &out)
{
    return parseHexDouble(payload, out);
}

constexpr char kRecordMagic[] = "U1";

/** Record kinds. */
constexpr char kKindMix = 'm';
constexpr char kKindLc = 'l';
constexpr char kKindBatch = 'b';

/** The index slot of a record kind, or -1 for kinds this build never
 *  writes (their records are valid but unreachable). */
int
kindSlot(char kind)
{
    switch (kind) {
      case kKindMix:
        return 0;
      case kKindLc:
        return 1;
      case kKindBatch:
        return 2;
    }
    return -1;
}

/** How one append attempt ended. */
enum class AppendOutcome
{
    Ok,   ///< the full record (and newline) reached the stream
    Torn, ///< injected crash mid-record: bytes partially on disk
    Err,  ///< persistent failure after bounded retries
};

/**
 * Write all of `line`, absorbing short fwrite returns (real or
 * injected) by retrying the remainder. Zero-progress attempts burn
 * bounded backoff attempts; partial progress retries immediately.
 * Counts every extra attempt in `retries`.
 */
AppendOutcome
appendAll(std::FILE *f, const std::string &line, std::size_t shard_idx,
          std::atomic<std::uint64_t> &retries)
{
    std::size_t done = 0;
    RetryBackoff backoff(0x5afec0deull, shard_idx);
    for (;;) {
        std::size_t want = line.size() - done;
        FailpointHit hit = failpointEval("cache.append");
        std::size_t wrote = 0;
        if (hit.kind == FailpointHit::Kind::Err) {
            errno = hit.err; // simulated device error: nothing written
        } else if (hit.kind == FailpointHit::Kind::ShortWrite ||
                   hit.kind == FailpointHit::Kind::Torn) {
            std::size_t n = hit.arg < want
                                ? static_cast<std::size_t>(hit.arg)
                                : want;
            wrote = std::fwrite(line.data() + done, 1, n, f);
            if (hit.kind == FailpointHit::Kind::Torn) {
                // Simulated crash: whatever made it out stays, the
                // writer never comes back for the rest.
                std::fflush(f);
                return AppendOutcome::Torn;
            }
        } else {
            wrote = std::fwrite(line.data() + done, 1, want, f);
        }
        done += wrote;
        if (done == line.size())
            return AppendOutcome::Ok;
        std::clearerr(f); // a failed stream must accept the retry
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

std::string
mixResultKey(const ExperimentConfig &cfg, const MixSpec &mix,
             const SchemeUnderTest &sut, std::uint64_t seed,
             bool out_of_order, std::uint32_t schema)
{
    KeyBuilder kb("mix", schema);
    addExperiment(kb, cfg, out_of_order);
    kb.add("mix.name", mix.name);
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
    kb.add("batch.name", mix.batch.name);
    for (int i = 0; i < 3; i++)
        addBatchApp(kb, mix.batch.apps[static_cast<std::size_t>(i)], i);
    // Batch replay mirrors lc.traces: content-hash keyed, so a
    // re-encoded trace still hits and an edited one never does.
    kb.add("batch.ntraces",
           static_cast<std::uint64_t>(mix.batch.traces.size()));
    for (std::size_t i = 0; i < mix.batch.traces.size(); i++)
        kb.add("batch.trace" + std::to_string(i),
               mix.batch.traces[i]->contentHash());
    addScheme(kb, sut);
    kb.add("seed", seed);
    return kb.take();
}

std::string
lcBaselineKey(const ExperimentConfig &cfg, const LcAppParams &params,
              double load, std::uint64_t seed, bool out_of_order,
              std::uint32_t schema)
{
    KeyBuilder kb("lcbase", schema);
    addExperiment(kb, cfg, out_of_order);
    addLcApp(kb, params);
    kb.add("lc.load", load);
    kb.add("seed", seed);
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

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

struct ResultCache::Shard
{
    std::mutex mu;
    bool loaded = false;
    /** Bytes of the shard file already parsed: refresh resumes here,
     *  so picking up records appended by cooperating processes costs
     *  one seek, not a rescan. An unterminated (torn) tail is never
     *  consumed — a writer may still be mid-append — so it is
     *  re-examined on the next refresh. */
    std::uint64_t parsedBytes = 0;
    /** Offset of the torn tail already counted as corrupt, so a
     *  permanently-dead tail is counted once, not once per poll. */
    std::uint64_t tornCountedAt = ~0ull;
};

/**
 * Every loaded record, across shards: key -> payload, one hashed
 * index per record kind (kindSlot), so a lookup takes the caller's
 * key as is and a hit never hashes the key for its shard (an indexed
 * key's shard is loaded already). Never iterated. Lock order: a
 * shard's mutex, then `mu`.
 */
struct ResultCache::Index
{
    std::shared_mutex mu;
    std::unordered_map<std::string, std::string> byKind[3];

    /** The payload under (kind, key), or nullptr; caller holds mu. */
    const std::string *find(char kind, const std::string &key) const
    {
        const auto &m = byKind[kindSlot(kind)];
        auto it = m.find(key);
        return it == m.end() ? nullptr : &it->second;
    }
};

ResultCache::ResultCache(std::string dir)
    : dir_(std::move(dir)), shards_(new Shard[kShards]),
      index_(new Index)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (!std::filesystem::is_directory(dir_))
        warn("result cache: cannot create '%s' (%s); caching disabled",
             dir_.c_str(), ec.message().c_str());
}

ResultCache::~ResultCache() = default;

std::unique_ptr<ResultCache>
ResultCache::open(const std::string &dir)
{
    if (dir.empty())
        return nullptr;
    auto cache = std::make_unique<ResultCache>(dir);
    if (!std::filesystem::is_directory(dir))
        return nullptr; // the constructor already warned
    return cache;
}

std::size_t
ResultCache::shardOf(const std::string &key)
{
    return static_cast<std::size_t>(fnvFold(kFnvOffsetBasis, key) %
                                    kShards);
}

std::string
ResultCache::shardPath(std::size_t idx) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard_%02zx.ubikcache", idx);
    return dir_ + "/" + name;
}

void
ResultCache::refreshShardLocked(Shard &s, std::size_t idx)
{
    s.loaded = true;
    // A failed refresh leaves a stale view: subsequent lookups can
    // miss on records that are actually on disk, costing a duplicate
    // compute of a deterministic value — never a wrong result.
    if (failpointEval("cache.refresh").kind ==
        FailpointHit::Kind::Err) {
        refreshDegraded_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::ifstream in(shardPath(idx), std::ios::binary);
    if (!in.is_open())
        return; // nothing persisted yet
    in.seekg(static_cast<std::streamoff>(s.parsedBytes));
    if (!in)
        return;
    std::string buf;
    char chunk[16384];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
        buf.append(chunk, static_cast<std::size_t>(in.gcount()));

    enum class Rec { Valid, Evicted, Bad };
    std::string key, payload;
    struct Parsed
    {
        int slot;
        std::string key, payload;
    };
    std::vector<Parsed> parsed;
    auto classify = [&](std::string_view line) -> Rec {
        // U1 <schema> <kind> <key> <payload> <crc>
        Fields f(line, ' ');
        std::string_view magic, schemaTok, kindTok, keyTok, payloadTok,
            crcTok;
        if (!f.next(magic) || !f.next(schemaTok) || !f.next(kindTok) ||
            !f.next(keyTok) || !f.next(payloadTok) || !f.next(crcTok) ||
            !f.done() || magic != kRecordMagic || kindTok.size() != 1)
            return Rec::Bad;
        std::uint64_t crc, schema;
        if (!unescapeToken(keyTok, key) ||
            !unescapeToken(payloadTok, payload) ||
            !parseHex64(crcTok, crc) ||
            crc != recordChecksum(kindTok[0], key, payload))
            return Rec::Bad;
        if (!parseDec(schemaTok, schema))
            return Rec::Bad;
        if (schema != kResultCacheSchemaVersion)
            return Rec::Evicted;
        int slot = kindSlot(kindTok[0]);
        if (slot >= 0)
            parsed.push_back({slot, key, payload});
        return Rec::Valid;
    };

    const std::uint64_t base = s.parsedBytes;
    const std::string_view all(buf);
    std::size_t start = 0;
    while (start < all.size()) {
        std::size_t nl = all.find('\n', start);
        bool terminated = nl != std::string_view::npos;
        std::string_view line =
            all.substr(start, (terminated ? nl : all.size()) - start);
        std::uint64_t off = base + start;
        if (terminated) {
            Rec r = line.empty() ? Rec::Valid : classify(line);
            if (r == Rec::Bad && off != s.tornCountedAt)
                corrupt_.fetch_add(1, std::memory_order_relaxed);
            else if (r == Rec::Evicted)
                evicted_.fetch_add(1, std::memory_order_relaxed);
            if (off == s.tornCountedAt)
                s.tornCountedAt = ~0ull; // the torn tail completed
            s.parsedBytes = base + nl + 1;
            start = nl + 1;
            continue;
        }
        // Unterminated tail: a writer may be mid-append.
        Rec r = classify(line);
        if (r == Rec::Bad) {
            // Leave it unconsumed so the next refresh re-examines it
            // once it completes; count it corrupt only once (it may
            // be a crashed writer's permanent stump, re-seen by every
            // poll until the next store's newline repair).
            if (off != s.tornCountedAt) {
                corrupt_.fetch_add(1, std::memory_order_relaxed);
                s.tornCountedAt = off;
            }
        } else {
            // Checksum-complete record that only lacks its trailing
            // newline: consume it.
            if (r == Rec::Evicted)
                evicted_.fetch_add(1, std::memory_order_relaxed);
            s.parsedBytes = base + all.size();
        }
        break;
    }
    if (parsed.empty())
        return;
    // First record wins; duplicates from racing appends carry the
    // same deterministic value anyway.
    std::unique_lock<std::shared_mutex> lock(index_->mu);
    for (Parsed &p : parsed)
        index_->byKind[p.slot].try_emplace(std::move(p.key),
                                           std::move(p.payload));
}

template <typename T>
bool
ResultCache::lookup(char kind, const std::string &key, bool refresh,
                    bool (*decode)(std::string_view, T &),
                    std::optional<T> &out)
{
    auto findDecode = [&](bool &ok) {
        std::shared_lock<std::shared_mutex> lock(index_->mu);
        const std::string *payload = index_->find(kind, key);
        if (payload)
            ok = decode(*payload, out.emplace());
        return payload != nullptr;
    };
    bool ok = false;
    bool found = !refresh && findDecode(ok);
    if (!found) {
        std::size_t idx = shardOf(key);
        Shard &s = shards_[idx];
        std::lock_guard<std::mutex> lock(s.mu);
        if (refresh || !s.loaded)
            refreshShardLocked(s, idx);
        // Again, also after no refresh: a store may have indexed the
        // key since the first look.
        found = findDecode(ok);
    }
    if (!found)
        return false;
    if (!ok) {
        out.reset();
        corrupt_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
}

void
ResultCache::countLookup(char kind, bool hit)
{
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    if (kind == kKindMix)
        (hit ? mixHits_ : mixMisses_)
            .fetch_add(1, std::memory_order_relaxed);
}

template <typename T>
std::optional<T>
ResultCache::load(char kind, const std::string &key,
                  bool (*decode)(std::string_view, T &))
{
    std::optional<T> out;
    countLookup(kind, lookup(kind, key, /*refresh=*/false, decode, out));
    return out;
}

bool
ResultCache::probe(char kind, const std::string &key)
{
    // Unconditional refresh: the point of a probe is seeing what
    // cooperating processes appended since the shard was loaded.
    std::optional<bool> unused;
    return lookup<bool>(kind, key, /*refresh=*/true,
                        [](std::string_view, bool &) { return true; },
                        unused);
}

void
ResultCache::store(char kind, const std::string &key,
                   const std::string &payload)
{
    std::size_t idx = shardOf(key);
    Shard &s = shards_[idx];
    std::lock_guard<std::mutex> lock(s.mu);
    // Full refresh (not just first-load): a cooperating process may
    // have appended this very record since we last looked, and
    // skipping the duplicate append keeps shard files minimal.
    refreshShardLocked(s, idx);
    {
        std::shared_lock<std::shared_mutex> ilock(index_->mu);
        const std::string *have = index_->find(kind, key);
        if (have && *have == payload)
            return; // already persisted (a racing process beat us)
    }

    std::string line;
    line.reserve(key.size() + payload.size() + 32);
    line += kRecordMagic;
    line += ' ';
    appendDec(line, kResultCacheSchemaVersion);
    line += ' ';
    line += kind;
    line += ' ';
    appendEscapedToken(line, key);
    line += ' ';
    appendEscapedToken(line, payload);
    line += ' ';
    appendHex64(line, recordChecksum(kind, key, payload));
    line += '\n';
    // One append per record: concurrent processes interleave at
    // record granularity at worst (a torn tail fails its checksum and
    // reads as a miss). Persistence failures degrade, never kill: the
    // in-memory entry is kept either way, so this worker still serves
    // its own result and only peers pay a recompute.
    std::FILE *f = nullptr;
    RetryBackoff openRetry(0x0be7c0deull, idx);
    for (;;) {
        FailpointHit hit = failpointEval("cache.open");
        if (hit.kind == FailpointHit::Kind::Err) {
            errno = hit.err;
        } else {
            f = std::fopen(shardPath(idx).c_str(), "a+b");
        }
        if (f || !openRetry.next())
            break;
    }
    bool persisted = false;
    if (f) {
        // A crashed writer can leave a torn tail with no newline;
        // gluing this record onto it would corrupt both. Start a
        // fresh line instead (the blank line is skipped on load).
        if (std::fseek(f, -1, SEEK_END) == 0 && std::fgetc(f) != '\n')
            line.insert(0, 1, '\n');
        // Update streams require a positioning call between the read
        // above and the write (C11 7.21.5.3p7).
        std::fseek(f, 0, SEEK_END);
        AppendOutcome out = appendAll(f, line, idx, appendRetries_);
        persisted = out == AppendOutcome::Ok;
        if (persisted && durable_) {
            // Fleet mode: the claim protocol treats "lease released"
            // as "result survives a crash", so the record must be on
            // disk before the caller drops its lease.
            std::fflush(f);
            int rc;
            FailpointHit fs = failpointEval("cache.fsync");
            if (fs.kind == FailpointHit::Kind::Err) {
                errno = fs.err;
                rc = -1;
            } else {
                rc = ::fsync(fileno(f));
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
                         shardPath(idx).c_str(),
                         std::strerror(errno));
            }
        }
        std::fclose(f);
    }
    if (!persisted) {
        storesDropped_.fetch_add(1, std::memory_order_relaxed);
        if (!appendWarned_.exchange(true))
            warn("result cache: cannot append to %s (%s); continuing "
                 "uncached — this worker keeps its results in memory",
                 shardPath(idx).c_str(), std::strerror(errno));
    }
    {
        std::unique_lock<std::shared_mutex> ilock(index_->mu);
        index_->byKind[kindSlot(kind)].insert_or_assign(key, payload);
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<MixRunResult>
ResultCache::loadMix(const std::string &key)
{
    return load(kKindMix, key, parseMix);
}

void
ResultCache::storeMix(const std::string &key, const MixRunResult &res)
{
    store(kKindMix, key, serializeMix(res));
}

std::optional<MixRunResult>
ResultCache::peekMix(const std::string &key)
{
    // Never a miss: a fleet worker may peek the same key many times
    // while a peer computes it, and that polling is not recomputation
    // (the "0 misses" warm-sweep invariant must survive fleet mode).
    std::optional<MixRunResult> out;
    if (lookup(kKindMix, key, /*refresh=*/true, parseMix, out))
        countLookup(kKindMix, true);
    return out;
}

bool
ResultCache::hasLcBaseline(const std::string &key)
{
    return probe(kKindLc, key);
}

bool
ResultCache::hasBatchIpc(const std::string &key)
{
    return probe(kKindBatch, key);
}

void
ResultCache::noteClaimsGced(std::uint64_t n)
{
    claimsGced_.fetch_add(n, std::memory_order_relaxed);
}

void
ResultCache::noteHbReleases(std::uint64_t n)
{
    hbReleases_.fetch_add(n, std::memory_order_relaxed);
}

void
ResultCache::noteSoloFallback()
{
    soloFallbacks_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<LcBaseline>
ResultCache::loadLcBaseline(const std::string &key)
{
    return load(kKindLc, key, parseLcBaseline);
}

void
ResultCache::storeLcBaseline(const std::string &key,
                             const LcBaseline &base)
{
    store(kKindLc, key, serializeLcBaseline(base));
}

std::optional<double>
ResultCache::loadBatchIpc(const std::string &key)
{
    return load(kKindBatch, key, parseBatchIpc);
}

void
ResultCache::storeBatchIpc(const std::string &key, double ipc)
{
    store(kKindBatch, key, hexDouble(ipc));
}

CacheStats
ResultCache::counters() const
{
    CacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.stores = stores_.load(std::memory_order_relaxed);
    st.mixHits = mixHits_.load(std::memory_order_relaxed);
    st.mixMisses = mixMisses_.load(std::memory_order_relaxed);
    st.evicted = evicted_.load(std::memory_order_relaxed);
    st.corrupt = corrupt_.load(std::memory_order_relaxed);
    st.claimsGced = claimsGced_.load(std::memory_order_relaxed);
    st.appendRetries =
        appendRetries_.load(std::memory_order_relaxed);
    st.storesDropped =
        storesDropped_.load(std::memory_order_relaxed);
    st.fsyncDegraded =
        fsyncDegraded_.load(std::memory_order_relaxed);
    st.refreshDegraded =
        refreshDegraded_.load(std::memory_order_relaxed);
    st.hbReleases = hbReleases_.load(std::memory_order_relaxed);
    st.soloFallbacks =
        soloFallbacks_.load(std::memory_order_relaxed);
    return st;
}

std::uint64_t
ResultCache::degraded() const
{
    return counters().degraded();
}

CacheStats
ResultCache::stats() const
{
    CacheStats st = counters();
    st.claimsLive = ClaimStore::leases(dir_).size();
    return st;
}

} // namespace ubik
