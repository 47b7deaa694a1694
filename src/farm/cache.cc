#include "farm/cache.h"

#include <algorithm>

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

ResultCache::ResultCache(CacheOptions options) : options_(options)
{
    size_t shards = 1;
    while (shards < std::max<size_t>(options_.shards, 1)) {
        shards <<= 1;
    }
    shard_mask_ = shards - 1;
    shard_bytes_ = std::max<size_t>(options_.max_bytes / shards, 1);
    shard_entries_ = std::max<size_t>(options_.max_entries / shards, 1);
    shards_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

ResultCache::Shard&
ResultCache::shardFor(const CacheKey& key)
{
    return *shards_[static_cast<size_t>(key.lo) & shard_mask_];
}

const ResultCache::Shard&
ResultCache::shardFor(const CacheKey& key) const
{
    return *shards_[static_cast<size_t>(key.lo) & shard_mask_];
}

size_t
ResultCache::entryBytes(const core::RunResult& result)
{
    return sizeof(core::RunResult) + result.output.size()
           + result.encode.frames.size()
                 * sizeof(result.encode.frames[0]);
}

double
ResultCache::now() const
{
    std::lock_guard<std::mutex> lock(clock_mu_);
    return clock_;
}

void
ResultCache::advance(double seconds)
{
    VT_ASSERT(seconds >= 0.0, "cache clock cannot run backwards");
    std::lock_guard<std::mutex> lock(clock_mu_);
    clock_ += seconds;
}

bool
ResultCache::expired(const Entry& entry, double now) const
{
    return options_.ttl_seconds > 0.0
           && now - entry.inserted >= options_.ttl_seconds;
}

void
ResultCache::dropEntry(Shard& shard, std::list<Entry>::iterator it)
{
    shard.bytes -= it->bytes;
    shard.index.erase(it->key);
    shard.lru.erase(it);
}

void
ResultCache::evictToFit(Shard& shard)
{
    while (!shard.lru.empty()
           && (shard.bytes > shard_bytes_
               || shard.lru.size() > shard_entries_)) {
        dropEntry(shard, std::prev(shard.lru.end()));
        ++shard.evictions;
    }
}

ResultCache::Value
ResultCache::lookupLocked(Shard& shard, const CacheKey& key, double now)
{
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        return nullptr;
    }
    if (expired(*it->second, now)) {
        dropEntry(shard, it->second);
        ++shard.expirations;
        return nullptr;
    }
    // Touch: splice the node to the LRU front (no reallocation).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return shard.lru.front().value;
}

ResultCache::Value
ResultCache::getOrCompute(const CacheKey& key, const ComputeFn& compute)
{
    Shard& shard = shardFor(key);
    std::unique_lock<std::mutex> lock(shard.mu);
    while (true) {
        if (Value ready = lookupLocked(shard, key, now())) {
            ++shard.lookups;
            ++shard.hits;
            return ready;
        }
        const auto fit = shard.inflight.find(key);
        if (fit == shard.inflight.end()) {
            break; // This caller becomes the computer.
        }
        // Single-flight wait: hold the Flight so the rendezvous outlives
        // any eviction, and sleep until the computer publishes.
        std::shared_ptr<Flight> flight = fit->second;
        ++shard.inflight_waits;
        shard.cv.wait(lock, [&] { return flight->done; });
        if (!flight->aborted) {
            ++shard.lookups;
            ++shard.hits;
            return flight->value;
        }
        // The computer threw; loop and contend to take over.
    }

    auto flight = std::make_shared<Flight>();
    shard.inflight.emplace(key, flight);
    ++shard.lookups;
    ++shard.misses;
    lock.unlock();

    Value value;
    try {
        value = std::make_shared<const core::RunResult>(compute());
    } catch (...) {
        abandon(key, flight);
        throw;
    }
    publish(key, flight, value);
    return value;
}

std::vector<ResultCache::Value>
ResultCache::getOrComputeGroup(const std::vector<CacheKey>& keys,
                               const GroupComputeFn& compute)
{
    std::vector<Value> values(keys.size());
    std::vector<size_t> claimed;
    std::vector<std::shared_ptr<Flight>> flights;
    std::vector<size_t> in_flight;
    for (size_t i = 0; i < keys.size(); ++i) {
        Shard& shard = shardFor(keys[i]);
        std::lock_guard<std::mutex> lock(shard.mu);
        if (Value ready = lookupLocked(shard, keys[i], now())) {
            ++shard.lookups;
            ++shard.hits;
            values[i] = std::move(ready);
        } else if (shard.inflight.count(keys[i]) != 0) {
            in_flight.push_back(i);
        } else {
            auto flight = std::make_shared<Flight>();
            shard.inflight.emplace(keys[i], flight);
            ++shard.lookups;
            ++shard.misses;
            claimed.push_back(i);
            flights.push_back(std::move(flight));
        }
    }

    if (!claimed.empty()) {
        std::vector<core::RunResult> computed;
        try {
            computed = compute(claimed);
            VT_ASSERT(computed.size() == claimed.size(),
                      "group compute returned ", computed.size(),
                      " results for ", claimed.size(), " keys");
        } catch (...) {
            for (size_t k = 0; k < claimed.size(); ++k) {
                abandon(keys[claimed[k]], flights[k]);
            }
            throw;
        }
        for (size_t k = 0; k < claimed.size(); ++k) {
            const size_t i = claimed[k];
            values[i] =
                std::make_shared<const core::RunResult>(std::move(computed[k]));
            publish(keys[i], flights[k], values[i]);
        }
    }

    for (size_t i : in_flight) {
        values[i] = getOrCompute(keys[i], [&] {
            return std::move(compute({i}).front());
        });
    }
    return values;
}

void
ResultCache::abandon(const CacheKey& key,
                     const std::shared_ptr<Flight>& flight)
{
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    flight->done = true;
    flight->aborted = true;
    shard.inflight.erase(key);
    shard.cv.notify_all();
}

void
ResultCache::publish(const CacheKey& key,
                     const std::shared_ptr<Flight>& flight,
                     const Value& value)
{
    const size_t bytes = entryBytes(*value);
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    flight->done = true;
    flight->value = value;
    shard.inflight.erase(key);
    if (bytes > shard_bytes_) {
        // Larger than a whole shard's budget: serve, don't retain.
        ++shard.rejected;
    } else {
        Entry entry;
        entry.key = key;
        entry.value = value;
        entry.bytes = bytes;
        entry.inserted = now();
        shard.lru.push_front(std::move(entry));
        shard.index[key] = shard.lru.begin();
        shard.bytes += bytes;
        evictToFit(shard);
    }
    shard.cv.notify_all();
}

ResultCache::Value
ResultCache::peek(const CacheKey& key)
{
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    Value ready = lookupLocked(shard, key, now());
    ++shard.lookups;
    if (ready) {
        ++shard.hits;
    } else {
        ++shard.misses;
    }
    return ready;
}

bool
ResultCache::contains(const CacheKey& key) const
{
    const Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    return it != shard.index.end() && !expired(*it->second, now());
}

CacheStats
ResultCache::stats() const
{
    CacheStats total;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        total.lookups += shard->lookups;
        total.hits += shard->hits;
        total.misses += shard->misses;
        total.inflight_waits += shard->inflight_waits;
        total.evictions += shard->evictions;
        total.expirations += shard->expirations;
        total.rejected += shard->rejected;
        total.bytes += shard->bytes;
        total.entries += shard->lru.size();
    }
    return total;
}

} // namespace vtrans::farm
