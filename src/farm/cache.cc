#include "farm/cache.h"

#include <numeric>

#include "common/status.h"

namespace vtrans::farm {

uint64_t
fnv1a(const uint8_t* data, size_t size, uint64_t seed)
{
    uint64_t h = seed;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1a(const std::string& text, uint64_t seed)
{
    return fnv1a(reinterpret_cast<const uint8_t*>(text.data()),
                 text.size(), seed);
}

namespace {

/** Folds a 64-bit word into an FNV-1a stream byte by byte. */
uint64_t
fnvWord(uint64_t h, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

CacheKey
makeCacheKey(uint64_t source_fp, uint64_t params_digest,
             const std::string& server_class)
{
    // Two independent streams (distinct seeds) over the same components
    // give the 128-bit digest; the class name is hashed, not appended,
    // so no component can smear into another.
    const uint64_t class_fp = fnv1a(server_class);
    CacheKey key;
    key.hi = fnvWord(fnvWord(fnvWord(0xcbf29ce484222325ull, source_fp),
                             params_digest),
                     class_fp);
    key.lo = fnvWord(fnvWord(fnvWord(0x84222325cbf29ce4ull, source_fp),
                             params_digest),
                     class_fp);
    return key;
}

ResultCache::ResultCache(CacheOptions options) : options_(options) {}

size_t
ResultCache::entryBytes(const core::RunResult& result)
{
    return sizeof(core::RunResult) + result.output.size()
           + result.encode.frames.size()
                 * sizeof(result.encode.frames[0]);
}

ResultCache::Value
ResultCache::touchLocked(const CacheKey& key)
{
    const auto it = index_.find(key);
    if (it == index_.end()) {
        return nullptr;
    }
    // Touch: splice the node to the LRU front (no reallocation).
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().value;
}

void
ResultCache::publishLocked(const CacheKey& key, Flight& flight,
                           const Value& value)
{
    flight.done = true;
    flight.value = value;
    inflight_.erase(key);
    const size_t bytes = entryBytes(*value);
    if (bytes > options_.max_bytes) {
        // Larger than the whole budget: serve, don't retain.
        ++counts_.rejected;
        return;
    }
    lru_.push_front(Entry{key, value, bytes});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    while (!lru_.empty()
           && (bytes_ > options_.max_bytes
               || lru_.size() > options_.max_entries)) {
        bytes_ -= lru_.back().bytes;
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++counts_.evictions;
    }
}

std::vector<ResultCache::Value>
ResultCache::getOrComputeGroup(const std::vector<CacheKey>& keys,
                               const GroupComputeFn& compute)
{
    std::vector<Value> values(keys.size());
    std::vector<size_t> pending(keys.size());
    std::iota(pending.begin(), pending.end(), size_t{0});
    std::unique_lock<std::mutex> lock(mu_);
    while (!pending.empty()) {
        // Serve ready keys, claim absent ones, and keep the keys in
        // flight elsewhere pending.
        std::vector<size_t> claimed;
        std::vector<std::shared_ptr<Flight>> flights;
        std::vector<size_t> busy;
        for (size_t i : pending) {
            if (Value ready = touchLocked(keys[i])) {
                ++counts_.lookups;
                ++counts_.hits;
                values[i] = std::move(ready);
            } else if (inflight_.count(keys[i]) != 0) {
                busy.push_back(i);
            } else {
                flights.push_back(std::make_shared<Flight>());
                inflight_.emplace(keys[i], flights.back());
                ++counts_.lookups;
                ++counts_.misses;
                claimed.push_back(i);
            }
        }
        pending = std::move(busy);

        if (!claimed.empty()) {
            lock.unlock();
            std::vector<core::RunResult> computed;
            try {
                computed = compute(claimed);
                VT_ASSERT(computed.size() == claimed.size(),
                          "group compute returned ", computed.size(),
                          " results for ", claimed.size(), " keys");
            } catch (...) {
                // Release every claim; a waiter on each takes over.
                lock.lock();
                for (size_t k = 0; k < claimed.size(); ++k) {
                    flights[k]->done = true;
                    flights[k]->aborted = true;
                    inflight_.erase(keys[claimed[k]]);
                }
                cv_.notify_all();
                throw;
            }
            for (size_t k = 0; k < claimed.size(); ++k) {
                values[claimed[k]] = std::make_shared<const core::RunResult>(
                    std::move(computed[k]));
            }
            lock.lock();
            for (size_t k = 0; k < claimed.size(); ++k) {
                publishLocked(keys[claimed[k]], *flights[k],
                              values[claimed[k]]);
            }
            cv_.notify_all();
            // Rescan: the pending keys may have landed meanwhile.
            continue;
        }
        if (pending.empty()) {
            break;
        }

        // Nothing left to claim: wait on the first key in flight. The
        // Flight is held, so the rendezvous outlives any eviction.
        const std::shared_ptr<Flight> flight = inflight_.at(keys[pending[0]]);
        ++counts_.inflight_waits;
        cv_.wait(lock, [&] { return flight->done; });
        if (!flight->aborted) {
            ++counts_.lookups;
            ++counts_.hits;
            values[pending[0]] = flight->value;
            pending.erase(pending.begin());
        }
        // An aborted key stays pending: the rescan serves it, waits on
        // the waiter that took it over, or claims it.
    }
    return values;
}

bool
ResultCache::contains(const CacheKey& key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(key) != 0;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats stats = counts_;
    stats.bytes = bytes_;
    stats.entries = lru_.size();
    return stats;
}

} // namespace vtrans::farm
