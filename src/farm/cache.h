#ifndef VTRANS_FARM_CACHE_H_
#define VTRANS_FARM_CACHE_H_

/**
 * @file
 * Content-addressed result cache for the transcoding farm.
 *
 * A repeat-heavy service sees the same (video, config) request again
 * and again, and every recurrence the farm re-encodes is paid-for work
 * a cache hit makes free. The cache stores one immutable
 * `core::RunResult` per *content digest* — a `CacheKey` derived from
 * the source video's byte fingerprint, the canonicalized encoder
 * parameters (see `codec::canonicalDigest`), and the simulated server
 * class the result was measured on — never from raw `Job::key()`
 * strings. Two jobs that describe identical work therefore alias to one
 * entry regardless of how their requests were spelled, which graph they
 * belong to, or which drain window submitted them.
 *
 * ## Structure
 *
 * One store sized to the farm's traffic (a few hundred lookups per
 * drain): one mutex, one LRU list (most-recent first; a touch splices
 * the node to the front, O(1) and allocation free), one hash index into
 * that list, and one map of keys in flight. Byte and entry budgets hold
 * over the whole store: inserting past either evicts from the LRU tail
 * until the store fits again, so `stats().bytes` is within budget after
 * every insert. A value whose own footprint exceeds the whole byte
 * budget is returned to the caller but not retained (`rejected`).
 * Entries never expire; only the budgets evict.
 *
 * ## Single-flight
 *
 * `getOrComputeGroup` is the one lookup path; a one-key group is the
 * single-key case. It guarantees *exactly one* execution of the compute
 * function per key, even under concurrent identical requests: the first
 * caller claims the key and computes it, later callers block on the
 * in-flight entry and receive the computer's value (`inflight_waits`
 * counts them). If the computer throws, one waiter takes over; the
 * exception propagates only to the thrower. Every cache decision is a
 * pure function of the operation sequence.
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
 * never collides and the low word doubles as the index hash.
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

/** Sizing of a ResultCache: budgets over the whole store. */
struct CacheOptions
{
    size_t max_bytes = 256 << 20; ///< Byte budget.
    size_t max_entries = 4096;    ///< Entry budget.
};

/** Counters of a ResultCache (hits + misses == lookups). */
struct CacheStats
{
    uint64_t lookups = 0;        ///< Resolved keys of getOrComputeGroup.
    uint64_t hits = 0;           ///< Served from a ready or landed entry.
    uint64_t misses = 0;         ///< Required a compute.
    uint64_t inflight_waits = 0; ///< Waits on another caller's compute.
    uint64_t evictions = 0;      ///< Entries evicted for budget.
    uint64_t rejected = 0;       ///< Values too large to retain.
    uint64_t bytes = 0;          ///< Current retained bytes.
    uint64_t entries = 0;        ///< Current retained entries.
};

/** The single-flight result store. Thread-safe throughout. */
class ResultCache
{
  public:
    using Value = std::shared_ptr<const core::RunResult>;
    /** Computes the values of the keys at `indices` (of a group), one
     *  result per index, in order. */
    using GroupComputeFn = std::function<std::vector<core::RunResult>(
        const std::vector<size_t>& indices)>;

    explicit ResultCache(CacheOptions options = {});

    ResultCache(const ResultCache&) = delete;
    ResultCache& operator=(const ResultCache&) = delete;

    /**
     * Returns the value of every key of a group whose values one
     * computation produces together (a multi-class pass), computing
     * each at most once. Ready entries are served (LRU-touched); every
     * absent key is claimed by this caller and all of them are computed
     * in a single `compute` call; keys in flight elsewhere are waited
     * on only after this caller has published its own, so two
     * overlapping groups never wait on each other. Each key counts one
     * lookup, as a hit or a miss. The returned pins stay valid
     * regardless of later eviction.
     */
    std::vector<Value> getOrComputeGroup(const std::vector<CacheKey>& keys,
                                         const GroupComputeFn& compute);

    /**
     * True if a ready entry exists. Quiet: no stats, no LRU touch — the
     * farm planner snapshots prior contents with this.
     */
    bool contains(const CacheKey& key) const;

    /** The store's counters. */
    CacheStats stats() const;

    const CacheOptions& options() const { return options_; }

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
    };

    /** Single-flight rendezvous: waiters hold the Flight and sleep on
     *  `cv_` until the computer publishes or aborts. */
    struct Flight
    {
        bool done = false;
        bool aborted = false;
        Value value;
    };

    /** Returns the ready value (touching the LRU) or nullptr. */
    Value touchLocked(const CacheKey& key);

    /** Retains a claimed key's computed value and ends its flight. */
    void publishLocked(const CacheKey& key, Flight& flight,
                       const Value& value);

    CacheOptions options_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::list<Entry> lru_; ///< Front = most recently used.
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index_;
    std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash>
        inflight_;
    size_t bytes_ = 0;
    CacheStats counts_; ///< Counters; `bytes`/`entries` filled by stats().
};

} // namespace vtrans::farm

#endif // VTRANS_FARM_CACHE_H_
