#ifndef VTRANS_FARM_CACHE_H_
#define VTRANS_FARM_CACHE_H_

/**
 * @file
 * Sharded, content-addressed result cache for the transcoding farm.
 *
 * At millions-of-users scale the same (video, config) request recurs
 * constantly, and every recurrence the farm re-encodes is paid-for work a
 * cache hit makes free. The cache stores one immutable `core::RunResult`
 * per *content digest* — a `CacheKey` derived from the source video's
 * byte fingerprint, the canonicalized encoder parameters (see
 * `codec::canonicalDigest`), and the simulated server class the result
 * was measured on — never from raw `Job::key()` strings. Two jobs that
 * describe identical work therefore alias to one entry regardless of how
 * their requests were spelled, which graph they belong to, or which
 * drain window submitted them.
 *
 * ## Structure
 *
 * The store is N-way sharded by key hash. Each shard owns a mutex, an
 * LRU list (most-recent first; the entry nodes themselves carry the
 * links via `std::list` splicing, so a touch is O(1) and allocation
 * free), and a hash index into that list. Byte and entry budgets are
 * enforced per shard (total budget / shard count): inserting past the
 * budget evicts from the LRU tail until the shard fits again, so
 * `stats().bytes` is within budget after every eviction. An entry whose
 * own footprint exceeds a whole shard's budget is returned to the caller
 * but not retained (`rejected` in the stats).
 *
 * ## Single-flight
 *
 * `getOrCompute` guarantees *exactly one* execution of the compute
 * function per key, even under concurrent identical requests: the first
 * caller becomes the computer, later callers block on the in-flight
 * entry and receive the computer's value (`inflight_waits` counts them).
 * There is no thundering herd and no duplicate encode. If the computer
 * throws, one waiter takes over; the exception propagates only to the
 * thrower.
 *
 * ## Time
 *
 * TTL expiry runs on an explicit logical clock (`advance`), not wall
 * time: the farm advances it by each drain's simulated makespan, tests
 * drive it directly. Every cache decision is therefore a pure function
 * of the operation sequence — deterministic at any thread count for any
 * serial sequence of operations.
 *
 * Values are returned as `shared_ptr<const RunResult>` pins: eviction
 * removes an entry from the cache's index and byte accounting, but a
 * drain that already holds the pin keeps using the value safely.
 */

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/workload.h"

namespace vtrans::farm {

/**
 * A 128-bit content digest. Built by `makeCacheKey` from independent
 * FNV-1a streams over the components, so distinct work practically
 * never collides and the low word doubles as the shard/index hash.
 */
struct CacheKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const CacheKey& o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const CacheKey& o) const { return !(*this == o); }
    bool operator<(const CacheKey& o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
};

struct CacheKeyHash
{
    size_t operator()(const CacheKey& k) const
    {
        return static_cast<size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
    }
};

/** FNV-1a 64 over a byte buffer (the cache's content fingerprint). */
uint64_t fnv1a(const uint8_t* data, size_t size,
               uint64_t seed = 0xcbf29ce484222325ull);

/** FNV-1a 64 over a string (key components, config names). */
uint64_t fnv1a(const std::string& text,
               uint64_t seed = 0xcbf29ce484222325ull);

/**
 * Derives the content digest of one unit of farm work:
 * @param source_fp fingerprint of the exact source bytes the job
 *        encodes (whole mezzanine, or the chunk's slice set);
 * @param params_digest `codec::canonicalDigest` of the encoder
 *        parameters (order- and default-insensitive);
 * @param server_class the simulated core-config name the result was
 *        measured on. The encoded bytes are class-invariant by
 *        construction, but a `RunResult` also carries the per-class
 *        microarchitectural counters, so the class is part of the
 *        result's identity.
 */
CacheKey makeCacheKey(uint64_t source_fp, uint64_t params_digest,
                      const std::string& server_class);

/** Sizing and lifetime policy of a ResultCache. */
struct CacheOptions
{
    size_t shards = 8;            ///< Rounded up to a power of two.
    size_t max_bytes = 256 << 20; ///< Total byte budget (split per shard).
    size_t max_entries = 4096;    ///< Total entry budget (split per shard).
    double ttl_seconds = 0.0;     ///< Age limit on the logical clock;
                                  ///< 0 = entries never expire.
};

/** Aggregate counters over all shards (hits + misses == lookups). */
struct CacheStats
{
    uint64_t lookups = 0;        ///< Resolved getOrCompute/peek calls.
    uint64_t hits = 0;           ///< Served from a ready entry.
    uint64_t misses = 0;         ///< Required a compute.
    uint64_t inflight_waits = 0; ///< Callers that blocked on a compute.
    uint64_t evictions = 0;      ///< Entries evicted for budget.
    uint64_t expirations = 0;    ///< Entries dropped past their TTL.
    uint64_t rejected = 0;       ///< Values too large to retain.
    uint64_t bytes = 0;          ///< Current retained bytes.
    uint64_t entries = 0;        ///< Current retained entries.
};

/** The sharded, single-flight result store. Thread-safe throughout. */
class ResultCache
{
  public:
    using Value = std::shared_ptr<const core::RunResult>;
    using ComputeFn = std::function<core::RunResult()>;
    /** Computes the values of the keys at `indices` (of a group), one
     *  result per index, in order. */
    using GroupComputeFn = std::function<std::vector<core::RunResult>(
        const std::vector<size_t>& indices)>;

    explicit ResultCache(CacheOptions options = {});

    ResultCache(const ResultCache&) = delete;
    ResultCache& operator=(const ResultCache&) = delete;

    /**
     * Returns the cached value for `key`, computing it at most once:
     * a ready entry is served (LRU-touched); an in-flight entry is
     * waited on; an absent entry makes this caller the single computer.
     * The returned pin stays valid regardless of later eviction.
     */
    Value getOrCompute(const CacheKey& key, const ComputeFn& compute);

    /**
     * getOrCompute() over a group of keys whose values one computation
     * produces together (a multi-class pass). Ready entries are served;
     * every absent key is claimed by this caller and all of them are
     * computed in a single `compute` call; keys in flight elsewhere are
     * waited on only after this caller has published its own, so two
     * overlapping groups never wait on each other. Counts (lookups,
     * hits, misses, waits) exactly as one getOrCompute() per key.
     */
    std::vector<Value> getOrComputeGroup(const std::vector<CacheKey>& keys,
                                         const GroupComputeFn& compute);

    /**
     * Returns the ready value for `key` or nullptr, counting the lookup
     * (hit or miss) and touching the LRU. Does not wait on in-flight
     * computes and never computes.
     */
    Value peek(const CacheKey& key);

    /**
     * True if a ready, unexpired entry exists. Quiet: no stats, no LRU
     * touch — the farm planner snapshots prior contents with this.
     */
    bool contains(const CacheKey& key) const;

    /** Advances the logical TTL clock by `seconds` (>= 0). */
    void advance(double seconds);

    /** The logical clock (sum of all `advance` calls). */
    double now() const;

    /** Aggregated counters over all shards. */
    CacheStats stats() const;

    const CacheOptions& options() const { return options_; }

    /** Shard count after power-of-two rounding. */
    size_t shardCount() const { return shards_.size(); }

    /**
     * The retained footprint of a value: the result struct itself plus
     * its owned buffers (encoded output, per-frame statistics).
     */
    static size_t entryBytes(const core::RunResult& result);

  private:
    struct Entry
    {
        CacheKey key;
        Value value;
        size_t bytes = 0;
        double inserted = 0.0; ///< Logical-clock time of insertion.
    };

    /** Single-flight rendezvous: waiters hold the Flight and sleep on
     *  the shard cv until the computer publishes or aborts. */
    struct Flight
    {
        bool done = false;
        bool aborted = false;
        Value value;
    };

    struct Shard
    {
        mutable std::mutex mu;
        std::condition_variable cv;
        std::list<Entry> lru; ///< Front = most recently used.
        std::unordered_map<CacheKey, std::list<Entry>::iterator,
                           CacheKeyHash>
            index;
        std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash>
            inflight;
        size_t bytes = 0;

        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t inflight_waits = 0;
        uint64_t evictions = 0;
        uint64_t expirations = 0;
        uint64_t rejected = 0;
    };

    Shard& shardFor(const CacheKey& key);
    const Shard& shardFor(const CacheKey& key) const;

    /** True if the entry is past its TTL at logical time `now`. */
    bool expired(const Entry& entry, double now) const;

    /** Drops `it` from the shard (no stats; caller counts). */
    static void dropEntry(Shard& shard,
                          std::list<Entry>::iterator it);

    /** Evicts from the LRU tail until the shard is within budget. */
    void evictToFit(Shard& shard);

    /** Publishes a claimed key's computed value and wakes its waiters. */
    void publish(const CacheKey& key, const std::shared_ptr<Flight>& flight,
                 const Value& value);

    /** Releases a claimed key whose compute threw; a waiter takes over. */
    void abandon(const CacheKey& key, const std::shared_ptr<Flight>& flight);

    /** Locked lookup: returns the ready value (touching the LRU) or
     *  nullptr, dropping the entry if expired. */
    Value lookupLocked(Shard& shard, const CacheKey& key, double now);

    CacheOptions options_;
    size_t shard_bytes_ = 0;   ///< Per-shard byte budget.
    size_t shard_entries_ = 0; ///< Per-shard entry budget.
    size_t shard_mask_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex clock_mu_;
    double clock_ = 0.0;
};

} // namespace vtrans::farm

#endif // VTRANS_FARM_CACHE_H_
