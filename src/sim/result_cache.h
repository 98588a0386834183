/**
 * @file
 * Persistent sharded result cache: maps a canonical fingerprint of
 * (experiment scale, mix, scheme, seed, code-schema version) to a
 * serialized MixRunResult — or an LC/batch baseline — on disk, so
 * repeated sweeps across bench invocations only pay for
 * configurations they have never seen.
 *
 * Keys are canonical: every result-relevant field of
 * ExperimentConfig, MixSpec, SchemeUnderTest (including the full
 * UbikConfig and MemoryParams), the seed, and the core model flavour
 * is serialized into the key, doubles as exact bit patterns, so two
 * differently-constructed but equal configurations produce the same
 * key and any single field change produces a different one. The key
 * starts with the code-schema version (kResultCacheSchemaVersion);
 * bumping it invalidates every stale entry at once — bump it whenever
 * a simulator change alters results without changing any config
 * field.
 *
 * The store is sharded by key hash into kShards append-only files
 * under the cache directory. Concurrent JobPool workers (and
 * concurrent bench processes) therefore mostly touch disjoint files;
 * within a process a per-shard mutex serializes writers, and across
 * processes each record is appended with a single O_APPEND-style
 * write, so the worst interleaving is a duplicate or torn record.
 * Torn/garbage records fail their checksum and are treated as misses
 * (counted, skipped, and rewritten on the next store) — a corrupt
 * shard can cost recomputation but never poisons a result. Shards
 * are parsed incrementally from a per-shard byte offset, so peekMix
 * (the fleet sweep's poll primitive) and store() pick up records
 * appended by cooperating processes without rescanning the file.
 * Loaded records live in one in-memory hashed index per record kind,
 * shared by all shards: a warm hit hashes its key once and decodes
 * the payload in place, without hashing the key for its shard.
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

/** Bump to invalidate every cached result after a simulator change
 *  that alters results without changing any configuration field —
 *  or after a key-format change, so unreachable old-format records
 *  are evicted instead of lingering as dead weight.
 *  History: v1 = the initial store; v2 = trace-backed mixes (keys
 *  gain the trace content hashes, and trace replay changed
 *  request-cursor/address-salt semantics, which shifts any result
 *  that involved a bound trace); v3 = trace-backed *batch* apps
 *  enter the key, and enum fields are keyed by their canonical
 *  names (common/enum_names.h) instead of raw integers; v4 = mix
 *  keys gain the LC load profile, and the tailMean nearest-rank fix
 *  shifts every stored lcTailMean/tailDegradation and LC baseline,
 *  so all v3 values are stale. */
constexpr std::uint32_t kResultCacheSchemaVersion = 4;

/** Counters since this ResultCache was opened. */
struct CacheStats
{
    std::uint64_t hits = 0;   ///< lookups served from the store
    std::uint64_t misses = 0; ///< lookups that found nothing
    std::uint64_t stores = 0; ///< records appended

    /** Mix-result subset of hits/misses (baselines excluded) — what
     *  "zero mix recomputation" is asserted on. */
    std::uint64_t mixHits = 0;
    std::uint64_t mixMisses = 0;

    /** Stale records dropped on load: schema-version mismatch. */
    std::uint64_t evicted = 0;

    /** Records dropped on load: truncated or failed checksum. */
    std::uint64_t corrupt = 0;

    /** Fleet claim records (sim/claim_store.h) currently present in
     *  the cache dir's claims/ subdirectory, sampled at stats()
     *  time: in-flight work during a fleet sweep, orphans after a
     *  crash. */
    std::uint64_t claimsLive = 0;

    /** Orphaned (expired) claim records reclaimed through this
     *  cache's accounting (ResultCache::noteClaimsGced). */
    std::uint64_t claimsGced = 0;

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

    /** Shard refreshes that failed to read the shard file; the stale
     *  view can cost a duplicate compute, never a wrong result. */
    std::uint64_t refreshDegraded = 0;

    /** Leases voluntarily released because their heartbeat could not
     *  be written (ClaimStore -> noteHbReleases). */
    std::uint64_t hbReleases = 0;

    /** Fleet workers that fell back to solo execution because the
     *  claims directory was unusable (ParallelSweep ->
     *  noteSoloFallback). */
    std::uint64_t soloFallbacks = 0;

    /** Total degradation events (appendRetries excluded: a recovered
     *  retry delivered full service). */
    std::uint64_t degraded() const
    {
        return storesDropped + fsyncDegraded + refreshDegraded +
               hbReleases + soloFallbacks;
    }
};

/**
 * Canonical cache key for one mix run. Only the result-relevant
 * ExperimentConfig fields (scale, roiRequests, warmupRequests) enter
 * the key: seeds/mixesPerLc select *which* jobs run, jobs is proven
 * result-neutral by the determinism tests, and verbose/cacheDir are
 * I/O-only.
 */
std::string mixResultKey(const ExperimentConfig &cfg, const MixSpec &mix,
                         const SchemeUnderTest &sut, std::uint64_t seed,
                         bool out_of_order,
                         std::uint32_t schema = kResultCacheSchemaVersion);

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

/** Sharded persistent (key -> result) store. Thread-safe. */
class ResultCache
{
  public:
    /** Shard-file count; concurrent writers on different shards never
     *  contend. */
    static constexpr std::size_t kShards = 64;

    /** Opens (creating if needed) the cache under `dir`. */
    explicit ResultCache(std::string dir);
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Open a cache under `dir`; returns nullptr when `dir` is empty
     * (caching disabled) or cannot be created.
     */
    static std::unique_ptr<ResultCache> open(const std::string &dir);

    std::optional<MixRunResult> loadMix(const std::string &key);
    void storeMix(const std::string &key, const MixRunResult &res);

    std::optional<LcBaseline> loadLcBaseline(const std::string &key);
    void storeLcBaseline(const std::string &key, const LcBaseline &base);

    std::optional<double> loadBatchIpc(const std::string &key);
    void storeBatchIpc(const std::string &key, double ipc);

    /**
     * Like loadMix, but re-reads the key's shard file incrementally
     * first, so records appended by cooperating processes since the
     * shard was loaded become visible. Poll-friendly stats: counts a
     * hit on success and never counts a miss (a fleet worker may
     * peek the same key many times while a peer computes it).
     */
    std::optional<MixRunResult> peekMix(const std::string &key);

    /** Fresh-view presence probes for baselines (same refresh as
     *  peekMix). Count nothing: the caller's subsequent
     *  loadLcBaseline/loadBatchIpc does the counting. */
    bool hasLcBaseline(const std::string &key);
    bool hasBatchIpc(const std::string &key);

    /**
     * Durable mode: fsync every appended record before store()
     * returns. The fleet protocol releases a work claim only after
     * the result is stored, so with durability on, "claim released"
     * implies "result survives a crash" — a peer never has to
     * re-verify. Set before concurrent use (not thread-safe itself).
     */
    void setDurable(bool on) { durable_ = on; }

    /** Fold claim-record GC work (sim/claim_store.h) into this
     *  cache's stats. */
    void noteClaimsGced(std::uint64_t n);

    /** Fold heartbeat-failure lease releases (sim/claim_store.h) into
     *  this cache's degradation accounting. */
    void noteHbReleases(std::uint64_t n);

    /** Record a fleet worker degrading to solo execution
     *  (sim/parallel_sweep.cpp). */
    void noteSoloFallback();

    /** stats(): the counters, plus a scan of the claims directory
     *  for CacheStats::claimsLive. */
    CacheStats stats() const;

    /** stats().degraded() without the directory scan. */
    std::uint64_t degraded() const;

    const std::string &dir() const { return dir_; }

    /** Which shard a key lands in (exposed for the hardening tests). */
    static std::size_t shardOf(const std::string &key);

  private:
    struct Shard;
    struct Index;

    /**
     * Look (kind, key) up in the index and decode a found payload in
     * place, under the index lock. A miss, or `refresh`, first reads
     * the key's shard file under its shard lock (on a miss, only if
     * the shard was never loaded). Returns whether the key is present;
     * `out` holds the value only if it decoded (a payload that does
     * not decode counts as corrupt).
     */
    template <typename T>
    bool lookup(char kind, const std::string &key, bool refresh,
                bool (*decode)(std::string_view, T &),
                std::optional<T> &out);
    /** lookup() counting a hit or a miss. */
    template <typename T>
    std::optional<T> load(char kind, const std::string &key,
                          bool (*decode)(std::string_view, T &));
    /** Presence after a refresh; counts nothing. */
    bool probe(char kind, const std::string &key);
    void countLookup(char kind, bool hit);
    CacheStats counters() const; ///< stats() minus claimsLive
    void store(char kind, const std::string &key,
               const std::string &payload);
    void refreshShardLocked(Shard &s, std::size_t idx);
    std::string shardPath(std::size_t idx) const;

    std::string dir_;
    std::unique_ptr<Shard[]> shards_;
    std::unique_ptr<Index> index_;
    bool durable_ = false; ///< fsync records before store() returns

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> mixHits_{0};
    std::atomic<std::uint64_t> mixMisses_{0};
    std::atomic<std::uint64_t> evicted_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> claimsGced_{0};
    std::atomic<std::uint64_t> appendRetries_{0};
    std::atomic<std::uint64_t> storesDropped_{0};
    std::atomic<std::uint64_t> fsyncDegraded_{0};
    std::atomic<std::uint64_t> refreshDegraded_{0};
    std::atomic<std::uint64_t> hbReleases_{0};
    std::atomic<std::uint64_t> soloFallbacks_{0};
    std::atomic<bool> appendWarned_{false};
    std::atomic<bool> fsyncWarned_{false};
};

} // namespace ubik
