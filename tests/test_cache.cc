/**
 * @file
 * Tests of the content-addressed result cache (farm/cache.h) and its
 * farm integration: hit/miss accounting, LRU/byte-budget determinism,
 * single-flight execution under contention, run-log bit-identity of
 * cache-served drains across worker counts, outcome identity of cached
 * vs uncached drains, cross-drain warm reuse over a shared cache,
 * concurrent drains + lookups (the old `results_` race), the
 * `--cache-mb` budget flag, and the fixed-seed Zipf request sampler the
 * benches share.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/benchutil.h"
#include "core/workload.h"
#include "farm/cache.h"
#include "farm/farm.h"
#include "farm/runlog.h"
#include "uarch/config.h"

namespace vtrans {
namespace {

using farm::CacheKey;
using farm::CacheOptions;
using farm::CacheStats;
using farm::ResultCache;

CacheKey
key(uint64_t n)
{
    return farm::makeCacheKey(n, 0x600dd16e57ull, "baseline");
}

/** A result whose retained footprint is `extra` bytes past the base
 *  struct, tagged with `marker` so tests can tell values apart. */
core::RunResult
payload(size_t extra, double marker)
{
    core::RunResult result;
    result.transcode_seconds = marker;
    result.output.assign(extra, uint8_t{0xAB});
    return result;
}

size_t
baseBytes()
{
    return ResultCache::entryBytes(core::RunResult{});
}

/** A one-key group: the single-key lookup of the store. */
template <typename Fn>
ResultCache::Value
getOne(ResultCache& cache, const CacheKey& k, Fn compute)
{
    return cache
        .getOrComputeGroup({k},
                           [&](const std::vector<size_t>& indices) {
                               EXPECT_EQ(indices.size(), 1u);
                               std::vector<core::RunResult> values;
                               values.push_back(compute());
                               return values;
                           })
        .front();
}

// ---- Store semantics ---------------------------------------------------

TEST(Cache, HitMissAndStatsReconcile)
{
    ResultCache cache(CacheOptions{});
    int computes = 0;
    const auto first = getOne(cache, key(1), [&] {
        ++computes;
        return payload(0, 7.0);
    });
    const auto second = getOne(cache, key(1), [&] {
        ++computes;
        return payload(0, 8.0);
    });
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_DOUBLE_EQ(second->transcode_seconds, 7.0);
    // A lookup whose compute throws is a miss that retains nothing.
    EXPECT_FALSE(cache.contains(key(2)));
    EXPECT_THROW(getOne(cache, key(2),
                        []() -> core::RunResult {
                            throw std::runtime_error("no value");
                        }),
                 std::runtime_error);

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.lookups, 3u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.lookups, s.hits + s.misses);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, baseBytes());
}

TEST(Cache, KeyDerivationSeparatesEveryComponent)
{
    const CacheKey base = farm::makeCacheKey(1, 2, "baseline");
    EXPECT_EQ(base, farm::makeCacheKey(1, 2, "baseline"));
    EXPECT_NE(base, farm::makeCacheKey(3, 2, "baseline"));
    EXPECT_NE(base, farm::makeCacheKey(1, 4, "baseline"));
    EXPECT_NE(base, farm::makeCacheKey(1, 2, "be_op1"));
}

TEST(Cache, LruEvictionIsDeterministic)
{
    CacheOptions opts;
    opts.max_entries = 3;
    opts.max_bytes = size_t{1} << 30;
    ResultCache cache(opts);

    for (uint64_t k = 1; k <= 3; ++k) {
        getOne(cache, key(k), [&] { return payload(0, double(k)); });
    }
    // Touch key 1 (a hit) so key 2 becomes the LRU tail, then overflow.
    ASSERT_NE(getOne(cache, key(1), [] { return payload(0, -1.0); }),
              nullptr);
    getOne(cache, key(4), [] { return payload(0, 4.0); });

    EXPECT_TRUE(cache.contains(key(1)));
    EXPECT_FALSE(cache.contains(key(2)));
    EXPECT_TRUE(cache.contains(key(3)));
    EXPECT_TRUE(cache.contains(key(4)));

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 3u);
    EXPECT_EQ(s.lookups, s.hits + s.misses);
}

TEST(Cache, ByteBudgetIsEnforcedAndOversizedValuesAreRejected)
{
    const size_t unit = baseBytes() + 1000;
    CacheOptions opts;
    opts.max_entries = 100;
    opts.max_bytes = 3 * unit + 500;
    ResultCache cache(opts);

    for (uint64_t k = 1; k <= 3; ++k) {
        getOne(cache, key(k), [&] { return payload(1000, double(k)); });
    }
    EXPECT_EQ(cache.stats().bytes, 3 * unit);
    EXPECT_EQ(cache.stats().entries, 3u);

    // A fourth entry overflows the byte budget: the LRU tail (key 1,
    // never touched) is evicted and accounting lands back in budget.
    getOne(cache, key(4), [] { return payload(1000, 4.0); });
    EXPECT_EQ(cache.stats().bytes, 3 * unit);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.contains(key(1)));
    EXPECT_TRUE(cache.contains(key(4)));

    // A value bigger than the whole budget is served to the caller but
    // not retained, and does not disturb resident entries.
    const auto big =
        getOne(cache, key(9), [&] { return payload(opts.max_bytes, 9.0); });
    ASSERT_NE(big, nullptr);
    EXPECT_DOUBLE_EQ(big->transcode_seconds, 9.0);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.stats().entries, 3u);
    EXPECT_EQ(cache.stats().bytes, 3 * unit);
    EXPECT_FALSE(cache.contains(key(9)));
    EXPECT_LE(cache.stats().bytes, opts.max_bytes);
}

TEST(Cache, SingleFlightComputesExactlyOnceUnderContention)
{
    constexpr int kThreads = 8;
    ResultCache cache(CacheOptions{});
    std::atomic<int> computes{0};
    std::atomic<int> arrived{0};

    std::vector<std::thread> threads;
    std::vector<double> seen(kThreads, 0.0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            arrived.fetch_add(1);
            const auto value = getOne(cache, key(1), [&] {
                computes.fetch_add(1);
                // Hold the flight until every thread has at least
                // entered the lookup, then linger so they all reach
                // the in-flight wait.
                while (arrived.load() < kThreads) {
                    std::this_thread::yield();
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                return payload(0, 42.0);
            });
            seen[t] = value->transcode_seconds;
        });
    }
    for (auto& th : threads) {
        th.join();
    }

    EXPECT_EQ(computes.load(), 1);
    for (double v : seen) {
        EXPECT_DOUBLE_EQ(v, 42.0);
    }
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.lookups, uint64_t{kThreads});
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, uint64_t{kThreads - 1});
    EXPECT_EQ(s.inflight_waits, uint64_t{kThreads - 1});
}

TEST(Cache, AbortedComputeHandsTheFlightToAWaiter)
{
    ResultCache cache(CacheOptions{});
    std::atomic<bool> computing{false};
    std::atomic<bool> waiter_arrived{false};
    std::atomic<int> good_computes{0};
    bool threw = false;

    std::thread first([&] {
        try {
            getOne(cache, key(1), [&]() -> core::RunResult {
                computing.store(true);
                while (!waiter_arrived.load()) {
                    std::this_thread::yield();
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error("encode exploded");
            });
        } catch (const std::runtime_error&) {
            threw = true;
        }
    });
    while (!computing.load()) {
        std::this_thread::yield();
    }
    std::thread second([&] {
        waiter_arrived.store(true);
        const auto value = getOne(cache, key(1), [&] {
            good_computes.fetch_add(1);
            return payload(0, 5.0);
        });
        EXPECT_DOUBLE_EQ(value->transcode_seconds, 5.0);
    });
    first.join();
    second.join();

    EXPECT_TRUE(threw);
    EXPECT_EQ(good_computes.load(), 1);
    EXPECT_TRUE(cache.contains(key(1)));
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.lookups, s.hits + s.misses);
}

TEST(Cache, ConcurrentStressStaysWithinBudgetAndReconciles)
{
    CacheOptions opts;
    opts.max_entries = 16;
    opts.max_bytes = 16 * (baseBytes() + 64);
    ResultCache cache(opts);

    constexpr int kThreads = 8;
    constexpr int kOps = 400;
    constexpr uint64_t kKeys = 32;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            uint64_t state = 0x9e3779b97f4a7c15ull * uint64_t(t + 1);
            for (int i = 0; i < kOps; ++i) {
                state = state * 6364136223846793005ull + 1442695040888963407ull;
                const uint64_t k = (state >> 33) % kKeys;
                switch ((state >> 13) % 3) {
                case 0:
                    getOne(cache, key(k), [&] {
                        return payload((state >> 5) % 128, double(k));
                    });
                    break;
                case 1:
                    // Two overlapping keys computed in one pass.
                    cache.getOrComputeGroup(
                        {key(k), key((k + 1) % kKeys)},
                        [&](const std::vector<size_t>& indices) {
                            std::vector<core::RunResult> values;
                            for (size_t i : indices) {
                                values.push_back(payload(
                                    (state >> 7) % 128, double(k + i)));
                            }
                            return values;
                        });
                    break;
                default:
                    cache.contains(key(k));
                    break;
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.lookups, s.hits + s.misses);
    EXPECT_LE(s.bytes, opts.max_bytes);
    EXPECT_LE(s.entries, opts.max_entries);
    EXPECT_GT(s.hits, 0u);
}

// ---- Farm integration --------------------------------------------------

constexpr double kClipSeconds = 0.3; // 9 frames of "cat" at 29 fps.

/** A small all-baseline farm with the result cache serving hits. */
farm::FarmOptions
cachedFarm(int workers, bool serve_hits, bool plan_cold = true)
{
    farm::FarmOptions options;
    options.pool = {uarch::baselineConfig()};
    options.replicas = 2;
    options.workers = workers;
    options.clip_seconds = kClipSeconds;
    options.reference_video = "cat";
    options.cache_serve_hits = serve_hits;
    options.cache_plan_cold = plan_cold;
    return options;
}

/** `jobs` requests cycling over `distinct` crf values of one clip. */
std::vector<farm::JobRequest>
repeatedStream(int jobs, int distinct)
{
    std::vector<farm::JobRequest> requests;
    for (int i = 0; i < jobs; ++i) {
        farm::JobRequest req;
        req.task = {"cat", 30 + i % distinct, 1, "ultrafast"};
        req.submit_time = 1e-3 * i;
        requests.push_back(req);
    }
    return requests;
}

std::string
drainJsonl(farm::Farm& farm, const std::vector<farm::JobRequest>& stream)
{
    for (const auto& req : stream) {
        farm.submit(req);
    }
    return farm.drain().toJsonl();
}

TEST(CacheFarm, RunLogIdenticalAcrossWorkerCounts)
{
    const auto stream = repeatedStream(12, 3);
    std::string reference;
    for (const int workers : {1, 4}) {
        farm::Farm farm(cachedFarm(workers, /*serve_hits=*/true));
        const std::string jsonl = drainJsonl(farm, stream);
        if (reference.empty()) {
            reference = jsonl;
            // The stream repeats each distinct task, so the schedule
            // must actually exercise the cache-served paths.
            EXPECT_NE(jsonl.find("\"cache_hit\":true"), std::string::npos);
        } else {
            EXPECT_EQ(jsonl, reference)
                << "cache-served run log diverged at " << workers
                << " workers";
        }
    }
}

TEST(CacheFarm, OutcomeIdenticalCachedVsUncached)
{
    const auto stream = repeatedStream(10, 2);
    farm::Farm uncached(cachedFarm(2, /*serve_hits=*/false));
    farm::Farm cached(cachedFarm(2, /*serve_hits=*/true));
    for (const auto& req : stream) {
        uncached.submit(req);
        cached.submit(req);
    }
    const farm::RunLog& base = uncached.drain();
    const farm::RunLog& serv = cached.drain();

    std::map<uint64_t, const farm::JobRecord*> by_id;
    for (const auto& rec : base.records()) {
        by_id[rec.id] = &rec;
    }
    ASSERT_EQ(serv.records().size(), base.records().size());
    bool any_hit = false;
    for (const auto& rec : serv.records()) {
        ASSERT_TRUE(by_id.count(rec.id));
        const farm::JobRecord& ref = *by_id.at(rec.id);
        EXPECT_EQ(rec.state, ref.state);
        EXPECT_EQ(rec.kind, ref.kind);
        EXPECT_EQ(rec.attempts, ref.attempts);
        EXPECT_DOUBLE_EQ(rec.psnr, ref.psnr);
        EXPECT_DOUBLE_EQ(rec.bitrate_kbps, ref.bitrate_kbps);
        EXPECT_EQ(rec.result_fingerprint, ref.result_fingerprint);
        EXPECT_FALSE(ref.cache_hit);
        any_hit = any_hit || rec.cache_hit;
    }
    EXPECT_TRUE(any_hit);
}

TEST(CacheFarm, DrainStatsReconcileAndMetricsAreEmitted)
{
    farm::Farm farm(cachedFarm(2, /*serve_hits=*/true));
    const std::string jsonl = drainJsonl(farm, repeatedStream(12, 3));
    EXPECT_NE(jsonl.find("\"cache_hit\":"), std::string::npos);

    const farm::CacheStats s = farm.cacheDrainStats();
    EXPECT_GT(s.lookups, 0u);
    EXPECT_EQ(s.lookups, s.hits + s.misses);
    EXPECT_GT(s.entries, 0u);
    EXPECT_LE(s.bytes, farm.cache().options().max_bytes);

    int hits = 0;
    for (const auto& rec : farm.log().records()) {
        hits += rec.cache_hit ? 1 : 0;
    }
    EXPECT_GT(hits, 0);
}

TEST(CacheFarm, SharedCacheServesWarmResultsAcrossDrains)
{
    auto shared = std::make_shared<ResultCache>(CacheOptions{});
    const auto stream = repeatedStream(8, 2);

    farm::FarmOptions first = cachedFarm(2, /*serve_hits=*/false);
    first.shared_cache = shared;
    farm::Farm warmup(first);
    drainJsonl(warmup, stream);
    EXPECT_GT(warmup.cacheDrainStats().misses, 0u);

    // Second drain over the same content: every digest is warm, so the
    // farm computes nothing and every job is served as a hit.
    farm::FarmOptions second = cachedFarm(2, /*serve_hits=*/true,
                                          /*plan_cold=*/false);
    second.shared_cache = shared;
    farm::Farm reuse(second);
    drainJsonl(reuse, stream);

    const farm::CacheStats s = reuse.cacheDrainStats();
    EXPECT_EQ(s.misses, 0u);
    EXPECT_GT(s.hits, 0u);
    for (const auto& rec : reuse.log().records()) {
        EXPECT_EQ(rec.state, farm::JobState::Done);
        EXPECT_TRUE(rec.cache_hit) << "job " << rec.id;
    }
}

TEST(CacheFarm, ConcurrentDrainsOnASharedCacheMatchSerialLogs)
{
    const auto stream = repeatedStream(10, 2);

    // Reference: a serial drain with a private cache. `plan_cold` keeps
    // the schedule independent of what a sibling farm publishes, so the
    // concurrent drains below must reproduce this log exactly.
    farm::Farm reference(cachedFarm(2, /*serve_hits=*/true));
    const std::string expected = drainJsonl(reference, stream);

    auto shared = std::make_shared<ResultCache>(CacheOptions{});
    farm::FarmOptions opts = cachedFarm(2, /*serve_hits=*/true);
    opts.shared_cache = shared;
    farm::Farm a(opts);
    farm::Farm b(opts);
    for (const auto& req : stream) {
        a.submit(req);
        b.submit(req);
    }

    // Hammer lookups from outside while both farms drain — the
    // regression for the old unsynchronized `results_` map reads.
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        uint64_t n = 0;
        while (!stop.load()) {
            shared->contains(key(n % 64));
            shared->contains(key((n * 7) % 64));
            ++n;
        }
    });
    std::string log_a;
    std::string log_b;
    std::thread ta([&] { log_a = a.drain().toJsonl(); });
    std::thread tb([&] { log_b = b.drain().toJsonl(); });
    ta.join();
    tb.join();
    stop.store(true);
    reader.join();

    EXPECT_EQ(log_a, expected);
    EXPECT_EQ(log_b, expected);
    const CacheStats s = shared->stats();
    EXPECT_EQ(s.lookups, s.hits + s.misses);
}

// ---- Budget flag -------------------------------------------------------

TEST(CacheBudgetDeathTest, CacheMbMustBeANonNegativeSizeInRange)
{
    const char* sized[] = {"prog", "--cache-mb=64"};
    EXPECT_EQ(bench::cacheBudgetBytes(Cli(2, sized)), size_t{64} << 20);
    EXPECT_EQ(bench::cacheBudgetBytes(Cli(1, sized)), size_t{256} << 20);
    const char* largest[] = {"prog", "--cache-mb=17592186044415"};
    EXPECT_EQ(bench::cacheBudgetBytes(Cli(2, largest)),
              ((size_t{1} << 44) - 1) << 20);

    // A negative budget, or 2^44 MiB and up, no longer wraps silently.
    const char* negative[] = {"prog", "--cache-mb=-1"};
    EXPECT_DEATH(bench::cacheBudgetBytes(Cli(2, negative)),
                 "--cache-mb expects MiB in \\[0, 17592186044415\\], "
                 "got -1");
    const char* huge[] = {"prog", "--cache-mb=17592186044416"};
    EXPECT_DEATH(bench::cacheBudgetBytes(Cli(2, huge)),
                 "--cache-mb expects MiB.*got 17592186044416");
}

// ---- Zipf sampler ------------------------------------------------------

TEST(Zipf, DistributionMatchesTheExactProbabilities)
{
    constexpr size_t kItems = 16;
    constexpr int kDraws = 40000;
    bench::ZipfSampler zipf(kItems, 1.1, 42);

    double total = 0.0;
    for (size_t r = 0; r < kItems; ++r) {
        total += zipf.probability(r);
        if (r > 0) {
            EXPECT_LT(zipf.probability(r), zipf.probability(r - 1));
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);

    std::vector<int> counts(kItems, 0);
    for (int i = 0; i < kDraws; ++i) {
        const size_t rank = zipf.next();
        ASSERT_LT(rank, kItems);
        ++counts[rank];
    }
    for (const size_t r : {size_t{0}, size_t{1}, size_t{7}}) {
        const double freq = double(counts[r]) / kDraws;
        EXPECT_NEAR(freq, zipf.probability(r), 0.02)
            << "rank " << r << " frequency off";
    }
    EXPECT_GT(counts[0], counts[kItems - 1]);
}

TEST(Zipf, FixedSeedIsDeterministicAndSeedsDiffer)
{
    bench::ZipfSampler a(32, 1.0, 7);
    bench::ZipfSampler b(32, 1.0, 7);
    bench::ZipfSampler c(32, 1.0, 8);
    bool any_diff = false;
    for (int i = 0; i < 200; ++i) {
        const size_t ra = a.next();
        EXPECT_EQ(ra, b.next());
        any_diff = any_diff || ra != c.next();
    }
    EXPECT_TRUE(any_diff);
}

TEST(Zipf, ArrivalGapsAverageTheRequestedRate)
{
    bench::ZipfSampler zipf(4, 1.0, 11);
    constexpr double kRate = 250.0;
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double gap = zipf.nextArrivalGap(kRate);
        ASSERT_GE(gap, 0.0);
        sum += gap;
    }
    EXPECT_NEAR(sum / 20000.0, 1.0 / kRate, 0.1 / kRate);
}

} // namespace
} // namespace vtrans
