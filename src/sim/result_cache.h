/**
 * @file
 * Persistent result cache: maps a canonical fingerprint of a
 * simulation's inputs and the code-schema version to its serialized
 * result on disk, so repeated sweeps and fleet queries across
 * invocations only pay for configurations they have never seen. Five
 * kinds of result live in it, each named by its key's second field:
 * `mix` (a MixRunResult), `lcbase` (an LcBaseline), `batchbase` (a
 * batch alone IPC), and the fleet stage's `qtail` (one G/G/k queue
 * tail) and `advice` (an AdvisorVerdict).
 *
 * Keys are canonical and hold only simulation inputs: every field of
 * ExperimentConfig, MixSpec and SchemeUnderTest (its slack, the other
 * UbikConfig tunables, MemoryParams) that a simulation reads, every
 * QueueSimParams field, the seed, and the core model flavour are
 * serialized into the key, doubles as exact bit patterns, so two
 * differently-constructed but equal configurations produce the same
 * key and any single field change produces a different one. Names no
 * simulation reads (the scheme label, the mix, batch-mix and app
 * names) stay out, so a relabelled scheme or renamed mix is served
 * its results. The key starts with the code-schema version
 * (kResultCacheSchemaVersion); bumping it invalidates every stale
 * entry at once — bump it whenever a simulator change alters results
 * without changing any config field.
 *
 * The store is one append-only log per schema version,
 * `results.v<schema>.ubikcache` under the cache directory. Each
 * record is one line, `<key> <payload> <crc>`, the crc being the
 * FNV-1a digest of the text `<key> <payload>` in 16 hex digits. Keys
 * hold only enum names, hex bit patterns and decimal counts, and
 * payloads only hex digits, commas and decimals, so nothing is
 * escaped: store() asserts that neither holds a space or a newline.
 * Opening a persistent cache removes every other `*.ubikcache` file
 * there (older schemas' logs, the older per-hash shard files) without
 * reading it, so builds of different schemas must not share a
 * directory at the same time: each would remove the other's log,
 * which costs recomputes, never a wrong value. Within a process one
 * mutex serializes the log's writers, and each record goes out in one
 * write(2) on an O_APPEND descriptor, so processes on one host's
 * local filesystem append whole records: the worst interleaving is a
 * duplicate. A writer that dies mid-record leaves a torn one. Torn
 * and garbage records fail their checksum and are treated as misses
 * (counted, skipped, and rewritten on the next store) — a corrupt log
 * can cost recomputation but never poisons a result. The log is read on first
 * use and from then on incrementally from a byte offset, so peekMix
 * (the fleet sweep's poll primitive) and store() pick up records
 * appended by cooperating processes without rescanning the file.
 * Logs merge by concatenation: the last record of a key wins, at load
 * as in store(), so a record whose payload no longer decodes is hidden
 * by the repair appended after it, and keeping the first copy of each
 * line drops duplicate records.
 * Loaded records live in one in-memory hashed index, key to payload
 * (keys of different kinds differ in their second field): a warm hit
 * hashes its key once and decodes the payload in place. Opened
 * without a directory, the cache keeps its records in memory for its
 * lifetime and touches no file: it stays the one store of results
 * whether or not they persist.
 *
 * Determinism contract: values round-trip bit-exactly (doubles are
 * stored as their 64-bit patterns), so a warm-cache sweep is
 * byte-identical to the cold run that populated it, at any worker
 * count.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "sim/mix_runner.h"

namespace ubik {

struct QueueSimParams;

/** Bump to invalidate every cached result after a simulator change
 *  that alters results without changing any configuration field —
 *  or after a key-format change. Each schema writes its own log, so
 *  a bump leaves the old log stale and the next open removes it:
 *  unreachable old-format records never linger as dead weight.
 *  History: v1 = the initial store; v2 = trace-backed mixes (keys
 *  gain the trace content hashes, and trace replay changed
 *  request-cursor/address-salt semantics, which shifts any result
 *  that involved a bound trace); v3 = trace-backed *batch* apps
 *  enter the key, and enum fields are keyed by their canonical
 *  names (common/enum_names.h) instead of raw integers; v4 = mix
 *  keys gain the LC load profile, and the tailMean nearest-rank fix
 *  shifts every stored lcTailMean/tailDegradation and LC baseline,
 *  so all v3 values are stale; v5 = mix keys drop `ubik.slack` and
 *  `mem.baseLatency`, which no simulation read (values unchanged);
 *  v6 = keys drop the scheme label and the mix, batch-mix and app
 *  names, which no simulation reads either (values unchanged); v7 =
 *  mix keys drop `ubik.slackGain`, `ubik.dutyAlpha` and
 *  `sut.lcMemShare`, now constants of UbikPolicy and
 *  SchemeUnderTest::applyTo (values unchanged). The log per schema,
 *  whose records no longer carry their schema, came without a bump:
 *  the file name holds the schema, and opening a cache removes the
 *  older v7 shard files. v8 = records are `<key> <payload> <crc>`
 *  lines, without the `U1` magic, the kind token or any escaping
 *  (keys and values unchanged but for the `v8|` prefix); the bump
 *  makes an open remove a v7 log unread instead of reading each of
 *  its records as corrupt. The fleet stage's `qtail` and `advice`
 *  kinds came without a bump: no existing key or value changed, and
 *  a build without them indexes their records harmlessly. */
constexpr std::uint32_t kResultCacheSchemaVersion = 8;

/** Counters since this ResultCache was opened. */
struct CacheStats
{
    std::uint64_t hits = 0;   ///< lookups served a value from the store
    std::uint64_t misses = 0; ///< lookups that returned nothing
    std::uint64_t stores = 0; ///< records appended

    /** Mix-result subset of hits/misses (every other kind excluded)
     *  — what "zero mix recomputation" is asserted on. */
    std::uint64_t mixHits = 0;
    std::uint64_t mixMisses = 0;

    /** Stale files removed at open, unread: other schemas' logs and
     *  the older per-hash shard files. */
    std::uint64_t evicted = 0;

    /** Records dropped: truncated or failed checksum on load, or a
     *  payload a lookup could not decode (that lookup is a miss). */
    std::uint64_t corrupt = 0;

    // -- Degradation counters (fault tolerance, PR 8) ------------------

    /** Append attempts that needed a retry (short write or transient
     *  error) but ultimately landed the record. Recovered, not
     *  degraded: excluded from degraded(). */
    std::uint64_t appendRetries = 0;

    /** Records that could not be persisted after retries (the worker
     *  kept its in-memory copy and continued uncached). */
    std::uint64_t storesDropped = 0;

    /** Durable-mode fsyncs that failed; the record was appended but
     *  its crash-survival guarantee is weakened. */
    std::uint64_t fsyncDegraded = 0;

    /** Log refreshes that failed to read the log file; the stale view
     *  can cost a duplicate compute, never a wrong result. */
    std::uint64_t refreshDegraded = 0;

    /** Total degradation events (appendRetries excluded: a recovered
     *  retry delivered full service). The fleet fill counts its own
     *  (ParallelSweep::fleetCounters). */
    std::uint64_t degraded() const
    {
        return storesDropped + fsyncDegraded + refreshDegraded;
    }
};

/**
 * Canonical cache key for one mix run. Only the result-relevant
 * ExperimentConfig fields (scale, roiRequests, warmupRequests) enter
 * the key: seeds/mixesPerLc select *which* jobs run, jobs is proven
 * result-neutral by the determinism tests, and cacheDir is I/O-only.
 * It joins the parts below.
 */
std::string mixResultKey(const ExperimentConfig &cfg, const MixSpec &mix,
                         const SchemeUnderTest &sut, std::uint64_t seed,
                         bool out_of_order,
                         std::uint32_t schema = kResultCacheSchemaVersion);

/**
 * The parts of a mix key, joined in this order:
 * mixResultKey(cfg, mix, sut, seed, ooo) is
 * joinMixKey(mixKeyHead(cfg, ooo), mixKeyPart(mix),
 * schemeKeyPart(sut), seed), byte for byte. A sweep builds each
 * mix's and each scheme's part once and joins them per job
 * (buildSweepKeys), instead of rebuilding every ~1.4 KB key whole.
 */
std::string mixKeyHead(const ExperimentConfig &cfg, bool out_of_order,
                       std::uint32_t schema = kResultCacheSchemaVersion);
std::string mixKeyPart(const MixSpec &mix);
std::string schemeKeyPart(const SchemeUnderTest &sut);
std::string joinMixKey(std::string_view head, std::string_view mix,
                       std::string_view scheme, std::uint64_t seed);

/** Canonical key for an LC baseline (calibration + open-loop run). */
std::string lcBaselineKey(const ExperimentConfig &cfg,
                          const LcAppParams &params, double load,
                          std::uint64_t seed, bool out_of_order,
                          std::uint32_t schema = kResultCacheSchemaVersion);

/** Canonical key for a batch alone-IPC baseline. */
std::string
batchBaselineKey(const ExperimentConfig &cfg, const BatchAppParams &params,
                 std::uint64_t seed, bool out_of_order,
                 std::uint32_t schema = kResultCacheSchemaVersion);

/** The fleet stage's advisor constants (fleet/fleet_model.cpp): the
 *  seed of the LC baseline its deadline comes from, the LC requests
 *  captured per preset, the capture's seed, and the points of the miss
 *  curve handed to advise(). advisorKey holds each, so changing one
 *  changes every verdict's key. */
constexpr std::uint64_t kAdvisorBaselineSeed = 1;
constexpr std::uint64_t kAdvisorTraceRequests = 256;
constexpr std::uint64_t kAdvisorTraceSeed = 42;
constexpr std::uint64_t kAdvisorCurvePoints = 257;

/** What the fleet stage keeps of the advisor's answer for one LC
 *  preset: the value under an advisorKey. */
struct AdvisorVerdict
{
    bool canDownsize = false;
    std::uint64_t freedLines = 0; ///< of the deepest feasible option
    double transientCycles = 0;   ///< of the deepest feasible option
};

/** Canonical key for one G/G/k queue tail: every QueueSimParams field,
 *  the seed and the tail percentile. */
std::string queueTailKey(const QueueSimParams &qp, std::uint64_t seed,
                         double pct,
                         std::uint32_t schema = kResultCacheSchemaVersion);

/** Canonical key for the advisor verdict on one LC preset: the inputs
 *  of its anchor's LC baseline (lcBaselineKey at kAdvisorBaselineSeed)
 *  and the advisor constants above. */
std::string advisorKey(const ExperimentConfig &cfg,
                       const LcAppParams &params, double load,
                       bool out_of_order,
                       std::uint32_t schema = kResultCacheSchemaVersion);

/**
 * Builds a canonical key, `v<schema>|<what>|name=value|...`, or,
 * default-constructed, a part of one, `|name=value|...`, each field
 * appended as it is: integers in decimal, doubles as their
 * 16-hex-digit bit pattern, strings verbatim. A string value must
 * hold no '|' or '=', which structure the key (asserted; enum names
 * and the canonical() strings never do). The key functions above
 * build every key and part through it.
 */
class KeyBuilder
{
  public:
    KeyBuilder(const char *what, std::uint32_t schema);
    KeyBuilder() = default;

    /** Prefix for the names of the fields added next ("b0."). */
    KeyBuilder &scope(std::string_view prefix)
    {
        scope_ = prefix;
        return *this;
    }

    KeyBuilder &add(std::string_view name, std::string_view v);
    /** A string literal or enum name (it would convert to bool). */
    KeyBuilder &add(std::string_view name, const char *v)
    {
        return add(name, std::string_view(v));
    }
    KeyBuilder &add(std::string_view name, std::uint64_t v);
    KeyBuilder &add(std::string_view name, std::uint32_t v)
    {
        return add(name, static_cast<std::uint64_t>(v));
    }
    KeyBuilder &add(std::string_view name, bool v);
    KeyBuilder &add(std::string_view name, double v);

    std::string take() { return std::move(out_); }

  private:
    /** Append "|<scope><name>=<value>". */
    KeyBuilder &put(std::string_view name, std::string_view value);

    std::string out_;
    std::string_view scope_;
};

/** Persistent (key -> result) store over one append-only log.
 *  Thread-safe. */
class ResultCache
{
  public:
    /** Opens (creating if needed) the cache under `dir` and removes
     *  its stale files. An empty `dir`, or one that cannot be created
     *  (warned), keeps records in memory only. */
    explicit ResultCache(std::string dir);
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** The cache under `dir`, as the constructor opens it; never
     *  null. */
    static std::unique_ptr<ResultCache> open(const std::string &dir);

    /** Whether records reach files under dir() (false: memory only). */
    bool persistent() const { return !dir_.empty(); }

    std::optional<MixRunResult> loadMix(const std::string &key);
    void storeMix(const std::string &key, const MixRunResult &res);

    std::optional<LcBaseline> loadLcBaseline(const std::string &key);
    void storeLcBaseline(const std::string &key, const LcBaseline &base);

    /** One double: a batch alone IPC or a queue tail. */
    std::optional<double> loadDouble(const std::string &key);
    void storeDouble(const std::string &key, double v);

    std::optional<AdvisorVerdict> loadAdvice(const std::string &key);
    void storeAdvice(const std::string &key, const AdvisorVerdict &v);

    /**
     * Like loadMix, but re-reads the log incrementally first, so
     * records appended by cooperating processes since the last read
     * become visible. Poll-friendly stats: counts a hit on success
     * and never counts a miss (a fleet worker may peek the same key
     * many times while a peer computes it).
     */
    std::optional<MixRunResult> peekMix(const std::string &key);

    /** Whether a record under `key` is present, after the same
     *  refresh as peekMix. Counts nothing: the caller's subsequent
     *  load does the counting. */
    bool has(const std::string &key);

    /**
     * Durable mode: fsync every appended record before store()
     * returns. The fleet protocol releases a work claim only after
     * the result is stored, so with durability on, "claim released"
     * implies "result survives a crash" — a peer never has to
     * re-verify. Set before concurrent use (not thread-safe itself).
     */
    void setDurable(bool on) { durable_ = on; }

    CacheStats stats() const;

    /** The cache directory; empty for an in-memory cache. */
    const std::string &dir() const { return dir_; }

  private:
    struct Index;

    /**
     * The value under `key`, its payload decoded in place under the
     * index lock; a payload that does not decode counts as corrupt
     * and returns nothing. A miss, or `refresh`, first reads the log
     * under the log lock (on a miss, only if the log was never read).
     */
    template <typename T>
    std::optional<T> lookup(const std::string &key, bool refresh,
                            bool (*decode)(std::string_view, T &));
    /** lookup() counting a hit or a miss (`mix`: also a mix one). */
    template <typename T>
    std::optional<T> load(const std::string &key,
                          bool (*decode)(std::string_view, T &),
                          bool mix);
    void countLookup(bool hit, bool mix);
    void store(const std::string &key, const std::string &payload);
    /** Append one record to the log; caller holds logMu_. */
    void append(const std::string &key, const std::string &payload);
    /** Index the records appended since the last read; caller holds
     *  logMu_. */
    void refreshLocked();

    std::string dir_;
    std::string logPath_; ///< the log file; empty for an in-memory cache
    std::unique_ptr<Index> index_;
    bool durable_ = false; ///< fsync records before store() returns

    /** Guards the log state below and serializes appends. Lock order:
     *  logMu_, then the index's lock. */
    std::mutex logMu_;
    bool loaded_ = false;
    /** Bytes of the log already parsed: a refresh resumes here, so
     *  picking up records appended by cooperating processes costs one
     *  seek, not a rescan. An unterminated (torn) tail is never
     *  consumed — a writer may still be mid-append — so it is
     *  re-examined on the next refresh. */
    std::uint64_t parsedBytes_ = 0;
    /** Offset of the torn tail already counted as corrupt, so a
     *  permanently-dead tail is counted once, not once per poll. */
    std::uint64_t tornCountedAt_ = ~0ull;

    std::uint64_t evicted_ = 0; ///< stale files removed at open
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> mixHits_{0};
    std::atomic<std::uint64_t> mixMisses_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> appendRetries_{0};
    std::atomic<std::uint64_t> storesDropped_{0};
    std::atomic<std::uint64_t> fsyncDegraded_{0};
    std::atomic<std::uint64_t> refreshDegraded_{0};
    std::atomic<bool> appendWarned_{false};
    std::atomic<bool> fsyncWarned_{false};
};

} // namespace ubik
