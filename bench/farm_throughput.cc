/**
 * @file
 * Farm service benchmark: (1) wall-clock throughput scaling of the worker
 * pool from 1 thread to hardware concurrency on one fixed job stream,
 * with a bit-identical-results check of every parallel run against the
 * serial reference; (2) dispatch-policy quality — smart vs. random mean
 * service latency on the same stream (the §III-D2 claim, online).
 *
 *   ./build/bench/farm_throughput [--jobs 24] [--seconds 0.2] [--seed 7]
 *       [--retries 2] [--faults 0.1] [--chunk-frames G]
 *
 * --chunk-frames G adds a third part: the same mixed-size stream
 * dispatched whole vs as GOP-chunked job graphs (boundary spacing G,
 * see chunk/chunk.h), comparing p50/p99 service latency of both arms
 * and reporting the chunk-boundary quality/size cost.
 *
 * --zipf-s S adds a fourth part: a Zipf(S)-popular, Poisson-paced
 * sustained-load stream (default 2000 jobs over a 48-item catalog)
 * run with the result cache serving hits vs not — the throughput/p99
 * cliff content addressing removes on a repeat-heavy service.
 * --zipf-jobs N, --zipf-items K, --zipf-load L (arrival rate as a
 * multiple of measured fleet capacity, default 1.2), --cache-mb M size
 * the experiment; --out writes the A/B as BENCH_cache.json and
 * --min-p99-gain G gates cached p99 at >= G x better than uncached.
 * --zipf-knee additionally sweeps load x {smart,random} and prints the
 * shed/latency knee per dispatch policy.
 *
 * Note: wall-clock speedup tracks the *physical* core count. On a
 * single-core host every worker count measures ~1x; the determinism
 * check is unaffected.
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bench/benchutil.h"
#include "chunk/chunk.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "core/workload.h"
#include "farm/farm.h"

namespace {

using namespace vtrans;

std::vector<farm::JobRequest>
makeJobStream(int jobs, int retries, uint64_t seed)
{
    const std::vector<sched::Task> catalog = {
        {"desktop", 30, 8, "veryfast"}, {"holi", 10, 1, "slow"},
        {"presentation", 35, 6, "veryfast"}, {"game2", 15, 2, "medium"},
        {"hall", 26, 3, "medium"},      {"bike", 20, 4, "fast"},
        {"cat", 23, 3, "fast"},         {"girl", 24, 3, "medium"},
    };
    Rng rng(seed);
    std::vector<farm::JobRequest> stream;
    double t = 0.0;
    for (int i = 0; i < jobs; ++i) {
        farm::JobRequest req;
        req.task = catalog[i % catalog.size()];
        req.submit_time = t;
        req.priority = static_cast<int>(rng.below(3));
        req.retry_budget = retries;
        stream.push_back(req);
        t += 0.0005 * rng.uniform();
    }
    return stream;
}

/** Runs the stream at a worker count; returns per-job fingerprints and
 *  the wall-clock seconds spent inside drain(). */
std::map<uint64_t, uint64_t>
runAt(const std::vector<farm::JobRequest>& stream,
      const farm::FarmOptions& base, int workers,
      farm::DispatchPolicy policy, double* wall_seconds,
      farm::FarmMetrics* metrics)
{
    farm::FarmOptions options = base;
    options.workers = workers;
    options.dispatch = policy;
    farm::Farm service(options);
    for (const auto& req : stream) {
        service.submit(req);
    }
    const auto t0 = std::chrono::steady_clock::now();
    service.drain();
    const auto t1 = std::chrono::steady_clock::now();
    if (wall_seconds) {
        *wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    }
    if (metrics) {
        *metrics = service.metrics();
    }
    std::map<uint64_t, uint64_t> prints;
    for (const auto& r : service.log().records()) {
        prints[r.id] = r.result_fingerprint;
    }
    return prints;
}

/** A catalog of `items` distinct renditions (the periods of the four
 *  cycled dimensions are coprime enough that tuples stay unique for any
 *  catalog under 408 items). */
std::vector<sched::Task>
makeZipfCatalog(int items)
{
    const std::vector<std::string> videos = {
        "desktop", "holi",    "presentation", "game2",
        "hall",    "bike",    "cat",          "girl",
    };
    const std::vector<std::string> presets = {"veryfast", "fast",
                                              "medium"};
    std::vector<sched::Task> catalog;
    for (int i = 0; i < items; ++i) {
        sched::Task t;
        t.video = videos[i % videos.size()];
        t.preset = presets[(i / videos.size()) % presets.size()];
        t.crf = 18 + i % 17;
        t.refs = 1 + (i / 2) % 4;
        catalog.push_back(t);
    }
    return catalog;
}

/** A Zipf-popular, Poisson-paced request stream: ranks drawn Zipf(s)
 *  over the catalog, inter-arrival gaps exponential at `rate` requests
 *  per simulated second. Pure function of (catalog, jobs, s, rate,
 *  seed). */
std::vector<farm::JobRequest>
makeZipfStream(const std::vector<sched::Task>& catalog, int jobs,
               double s, double rate, uint64_t seed)
{
    bench::ZipfSampler zipf(catalog.size(), s, seed);
    std::vector<farm::JobRequest> stream;
    double t = 0.0;
    for (int i = 0; i < jobs; ++i) {
        farm::JobRequest req;
        req.task = catalog[zipf.next()];
        t += zipf.nextArrivalGap(rate);
        req.submit_time = t;
        stream.push_back(req);
    }
    return stream;
}

/** Outcome of one sustained-load arm. */
struct ZipfArm
{
    farm::FarmMetrics metrics;
    farm::CacheStats cache;  ///< Store activity during the drain.
    double hit_fraction = 0; ///< Done jobs served as hit/wait.
};

/**
 * Runs the stream once. `serve_hits` is the A/B lever: both arms share
 * `memo` so the real encodes happen once across the whole experiment —
 * only the *modeled* schedule differs. The cached arm plans cold
 * (cache_plan_cold) so it measures a cache filling under load, not one
 * pre-warmed by the opposite arm.
 */
ZipfArm
runZipfArm(const std::vector<farm::JobRequest>& stream,
           const farm::FarmOptions& base,
           std::shared_ptr<farm::ResultCache> memo, bool serve_hits,
           farm::DispatchPolicy policy)
{
    farm::FarmOptions options = base;
    options.workers = 0;
    options.dispatch = policy;
    options.shared_cache = std::move(memo);
    options.cache_serve_hits = serve_hits;
    options.cache_plan_cold = serve_hits;
    farm::Farm service(options);
    for (const auto& req : stream) {
        service.submit(req);
    }
    service.drain();
    ZipfArm arm;
    arm.metrics = service.metrics();
    arm.cache = service.cacheDrainStats();
    size_t done = 0;
    size_t hits = 0;
    for (const auto& r : service.log().records()) {
        if (r.state == farm::JobState::Done) {
            ++done;
            hits += r.cache_hit ? 1 : 0;
        }
    }
    arm.hit_fraction =
        done == 0 ? 0.0 : static_cast<double>(hits) / done;
    return arm;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    setVerbose(false);
    const int jobs = static_cast<int>(cli.num("jobs", 24));
    const uint64_t seed = static_cast<uint64_t>(cli.num("seed", 7));
    const int retries = static_cast<int>(cli.num("retries", 2));

    farm::FarmOptions base;
    base.clip_seconds = cli.real("seconds", 0.2);
    base.fault_rate = cli.real("faults", 0.1);
    // Parts 3 and 4 run only when their flag is given; their settings
    // are read up front so a mistyped flag fails before any work.
    const bool chunk_part = cli.has("chunk-frames");
    const int chunk_frames = static_cast<int>(cli.num("chunk-frames", 3));
    const bool zipf_part = cli.has("zipf-s");
    const double zipf_s = cli.real("zipf-s", 1.1);
    const int zipf_jobs = static_cast<int>(cli.num("zipf-jobs", 2000));
    const int zipf_items = static_cast<int>(cli.num("zipf-items", 48));
    const double zipf_load = cli.real("zipf-load", 1.2);
    const double min_p99_gain = cli.real("min-p99-gain", 0.0);
    const size_t cache_bytes = bench::cacheBudgetBytes(cli);
    const std::string out_path = cli.str("out", "");
    const bool zipf_knee = cli.has("zipf-knee");
    cli.rejectUnknown();

    const auto stream = makeJobStream(jobs, retries, seed);

    // Pre-warm outside the timed region every mezzanine stream the jobs
    // will decode.
    std::set<std::string> videos{base.reference_video};
    for (const auto& req : stream) {
        videos.insert(req.task.video);
    }
    for (const auto& v : videos) {
        core::mezzanine(v, base.clip_seconds);
    }

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("farm_throughput: %d jobs, %.2fs clips, fault rate "
                "%.0f%%, %u hardware threads\n\n",
                jobs, base.clip_seconds, base.fault_rate * 100.0, hw);

    // --- Part 1: wall-clock scaling + determinism ---------------------
    // Always exercise 2 and 4 workers (the determinism check is about
    // thread interleaving, not physical cores); extend to hw beyond 4.
    std::vector<int> worker_counts{1, 2, 4};
    for (int w = 8; w <= static_cast<int>(hw); w *= 2) {
        worker_counts.push_back(w);
    }

    Table scaling({"workers", "wall (s)", "jobs/s (wall)", "speedup",
                   "identical to serial"});
    std::map<uint64_t, uint64_t> reference;
    double serial_wall = 0.0;
    bool all_identical = true;
    for (int workers : worker_counts) {
        double wall = 0.0;
        const auto prints = runAt(stream, base, workers,
                                  farm::DispatchPolicy::Smart, &wall,
                                  nullptr);
        bool identical = true;
        if (workers == 1) {
            reference = prints;
            serial_wall = wall;
        } else {
            identical = prints == reference;
            all_identical = all_identical && identical;
        }
        scaling.beginRow();
        scaling.cell(static_cast<int64_t>(workers));
        scaling.cell(wall, 2);
        scaling.cell(jobs / wall, 2);
        scaling.cell(serial_wall / wall, 2);
        scaling.cell(workers == 1 ? "(reference)"
                                  : (identical ? "yes" : "NO"));
    }
    std::printf("%s\n", scaling.toText().c_str());
    std::printf("determinism: %s\n\n",
                all_identical
                    ? "PASS - per-job results bit-identical at every "
                      "worker count"
                    : "FAIL - results differ across worker counts");

    // --- Part 2: dispatch-policy quality ------------------------------
    farm::FarmMetrics random_m, smart_m;
    runAt(stream, base, 0, farm::DispatchPolicy::Random, nullptr,
          &random_m);
    runAt(stream, base, 0, farm::DispatchPolicy::Smart, nullptr,
          &smart_m);
    Table quality({"policy", "completed", "failed", "retries",
                   "mean latency (ms)", "p95 (ms)", "makespan (ms)"});
    const std::vector<std::pair<std::string, const farm::FarmMetrics*>>
        rows = {{"random", &random_m}, {"smart", &smart_m}};
    for (const auto& [name, m] : rows) {
        quality.beginRow();
        quality.cell(name);
        quality.cell(static_cast<int64_t>(m->completed));
        quality.cell(static_cast<int64_t>(m->failed));
        quality.cell(static_cast<int64_t>(m->retries));
        quality.cell(m->mean_latency * 1000.0, 3);
        quality.cell(m->p95_latency * 1000.0, 3);
        quality.cell(m->makespan * 1000.0, 3);
    }
    std::printf("%s\n", quality.toText().c_str());

    const bool smart_wins = smart_m.mean_latency < random_m.mean_latency;
    std::printf("policy quality: %s - smart mean latency %.3f ms vs "
                "random %.3f ms\n",
                smart_wins ? "PASS" : "FAIL",
                smart_m.mean_latency * 1000.0,
                random_m.mean_latency * 1000.0);

    // --- Part 3: whole vs GOP-chunked dispatch (--chunk-frames) -------
    bool chunk_pass = true;
    if (chunk_part) {
        chunk::ChunkOptions chunking;
        chunking.chunk_frames = chunk_frames;

        // Chunking converts idle capacity into lower time-to-ready, so
        // the A/B stream must leave capacity to convert: mostly light
        // jobs with a heavy slow-preset job mixed in, arrivals spaced
        // wide enough that the fleet is not a saturated batch (under
        // saturation p99 is just makespan, and splitting only adds
        // closed-GOP work). Faults stay off in both arms — the retry
        // backoff (20 sim ms) dwarfs job latency (~0.5 ms) and would
        // swamp the dispatch comparison; fault recovery is parts 1-2's
        // and the test suite's job.
        const std::vector<sched::Task> light = {
            {"desktop", 30, 8, "veryfast"},
            {"presentation", 35, 6, "veryfast"},
            {"cat", 23, 3, "fast"},
            {"bike", 20, 4, "fast"},
        };
        const sched::Task heavy = {"holi", 10, 1, "slow"};
        std::vector<farm::JobRequest> mixed;
        double at = 0.0;
        for (int i = 0; i < jobs; ++i) {
            farm::JobRequest req;
            req.task = i % 4 == 3 ? heavy : light[i % light.size()];
            req.submit_time = at;
            req.retry_budget = 0;
            mixed.push_back(req);
            at += 0.0015;
        }

        // Both arms run the same stream on the default Table IV fleet:
        // whole jobs vs split->encode->stitch graphs. A graph's service
        // latency is its stitch record's submit-to-finish time — the
        // rendition is not deliverable before the remux lands.
        auto arm = [&](bool chunked, std::vector<double>* latencies,
                       double* dpsnr, double* dbitrate) {
            farm::FarmOptions options = base;
            options.workers = 0;
            options.fault_rate = 0.0;
            options.dispatch = farm::DispatchPolicy::Smart;
            farm::Farm service(options);
            for (const auto& req : mixed) {
                if (chunked) {
                    service.submitChunked(req, chunking);
                } else {
                    service.submit(req);
                }
            }
            service.drain();
            size_t stitched = 0;
            for (const auto& r : service.log().records()) {
                if (r.state != farm::JobState::Done) {
                    continue;
                }
                if (chunked ? r.kind == "stitch" : r.kind == "transcode") {
                    latencies->push_back(r.latency());
                }
                if (r.kind == "stitch") {
                    ++stitched;
                    if (dpsnr) {
                        *dpsnr += r.delta_psnr_db;
                    }
                    if (dbitrate) {
                        *dbitrate += r.delta_bitrate_kbps;
                    }
                }
            }
            if (stitched > 0) {
                if (dpsnr) {
                    *dpsnr /= stitched;
                }
                if (dbitrate) {
                    *dbitrate /= stitched;
                }
            }
        };
        std::vector<double> whole_lat, chunked_lat;
        double dpsnr = 0.0;
        double dbitrate = 0.0;
        arm(false, &whole_lat, nullptr, nullptr);
        arm(true, &chunked_lat, &dpsnr, &dbitrate);

        Table ab({"arm", "done", "p50 latency (ms)", "p99 latency (ms)"});
        const std::vector<std::pair<std::string, std::vector<double>*>>
            arms = {{"whole", &whole_lat}, {"chunked", &chunked_lat}};
        for (const auto& [name, lat] : arms) {
            ab.beginRow();
            ab.cell(name);
            ab.cell(static_cast<int64_t>(lat->size()));
            ab.cell(farm::RunLog::percentile(*lat, 50.0) * 1000.0, 3);
            ab.cell(farm::RunLog::percentile(*lat, 99.0) * 1000.0, 3);
        }
        std::printf("\n%s\n", ab.toText().c_str());

        const double whole_p99 =
            farm::RunLog::percentile(whole_lat, 99.0);
        const double chunked_p99 =
            farm::RunLog::percentile(chunked_lat, 99.0);
        chunk_pass = !chunked_lat.empty() && chunked_p99 < whole_p99;
        std::printf("chunked dispatch (gop=%d): %s - p99 %.3f ms vs "
                    "whole %.3f ms; boundary cost %+.3f dB PSNR, "
                    "%+.1f kbps\n",
                    chunking.chunk_frames, chunk_pass ? "PASS" : "FAIL",
                    chunked_p99 * 1000.0, whole_p99 * 1000.0, dpsnr,
                    dbitrate);
    }

    // --- Part 4: Zipf sustained load, cache on vs off (--zipf-s) ------
    bool zipf_pass = true;
    if (zipf_part) {
        const double s = zipf_s;
        const int zjobs = zipf_jobs;
        const int zitems = zipf_items;
        const double load = zipf_load;
        const double min_gain = min_p99_gain;
        const auto catalog = makeZipfCatalog(zitems);

        farm::FarmOptions zbase = base;
        zbase.fault_rate = 0.0; // Clean A/B: no retry noise in either arm.
        farm::CacheOptions cache_opts;
        cache_opts.max_bytes = cache_bytes;
        auto memo = std::make_shared<farm::ResultCache>(cache_opts);

        // Calibrate fleet capacity: one drain with each catalog item
        // exactly once (serve off). Its mean measured service time sets
        // the arrival rate at `load` x capacity — and its encodes warm
        // the shared memo, so the arms below are wall-cheap while their
        // *simulated* schedules stay exactly what a cold run measures.
        size_t fleet_size = 0;
        double mean_svc = 0.0;
        {
            farm::FarmOptions options = zbase;
            options.workers = 0;
            options.shared_cache = memo;
            farm::Farm service(options);
            double at = 0.0;
            for (const auto& task : catalog) {
                farm::JobRequest req;
                req.task = task;
                req.submit_time = at;
                service.submit(req);
                at += 1e-4;
            }
            service.drain();
            fleet_size = service.fleet().size();
            size_t done = 0;
            for (const auto& r : service.log().records()) {
                if (r.state == farm::JobState::Done) {
                    mean_svc += r.actual_seconds;
                    ++done;
                }
            }
            VT_ASSERT(done > 0, "Zipf calibration drain completed nothing");
            mean_svc /= static_cast<double>(done);
        }
        const double rate =
            load * static_cast<double>(fleet_size) / mean_svc;
        const auto zstream =
            makeZipfStream(catalog, zjobs, s, rate, seed);

        const auto uncached =
            runZipfArm(zstream, zbase, memo, false,
                       farm::DispatchPolicy::Smart);
        const auto cached =
            runZipfArm(zstream, zbase, memo, true,
                       farm::DispatchPolicy::Smart);

        std::printf("\nzipf sustained load: %d jobs over %d items, "
                    "s=%.2f, rate %.0f jobs/sim-s (%.1fx capacity)\n\n",
                    zjobs, zitems, s, rate, load);
        Table ab({"arm", "completed", "shed", "jobs/sim-s",
                  "p50 (ms)", "p95 (ms)", "p99 (ms)", "hit rate"});
        const std::vector<std::pair<std::string, const ZipfArm*>> arms = {
            {"uncached", &uncached}, {"cached", &cached}};
        for (const auto& [name, arm] : arms) {
            ab.beginRow();
            ab.cell(name);
            ab.cell(static_cast<int64_t>(arm->metrics.completed));
            ab.cell(static_cast<int64_t>(arm->metrics.shed));
            ab.cell(arm->metrics.throughput, 1);
            ab.cell(arm->metrics.p50_latency * 1000.0, 3);
            ab.cell(arm->metrics.p95_latency * 1000.0, 3);
            ab.cell(arm->metrics.p99_latency * 1000.0, 3);
            ab.cell(formatPercent(arm->hit_fraction, 1));
        }
        std::printf("%s\n", ab.toText().c_str());

        const double p99_gain =
            uncached.metrics.p99_latency
            / std::max(cached.metrics.p99_latency, 1e-12);
        const double thr_gain =
            cached.metrics.throughput
            / std::max(uncached.metrics.throughput, 1e-12);
        const bool reconciled =
            cached.cache.lookups
                == cached.cache.hits + cached.cache.misses
            && cached.cache.bytes <= cache_opts.max_bytes;
        zipf_pass = reconciled && cached.hit_fraction > 0.0
                    && cached.metrics.completed
                           >= uncached.metrics.completed
                    && (min_gain <= 0.0
                        || (p99_gain >= min_gain && thr_gain >= 1.0));
        std::printf("cache A/B: %s - p99 gain x%.2f, throughput gain "
                    "x%.2f, hit rate %.1f%%, store %s (lookups %llu = "
                    "hits %llu + misses %llu, %.1f MiB retained)\n",
                    zipf_pass ? "PASS" : "FAIL", p99_gain, thr_gain,
                    cached.hit_fraction * 100.0,
                    reconciled ? "reconciled" : "INCONSISTENT",
                    static_cast<unsigned long long>(cached.cache.lookups),
                    static_cast<unsigned long long>(cached.cache.hits),
                    static_cast<unsigned long long>(cached.cache.misses),
                    static_cast<double>(cached.cache.bytes)
                        / (1024.0 * 1024.0));

        if (!out_path.empty()) {
            std::FILE* f = std::fopen(out_path.c_str(), "w");
            if (f == nullptr) {
                std::printf("bench json NOT written (cannot open %s)\n",
                            out_path.c_str());
            } else {
                auto arm_json = [&](const char* name, const ZipfArm& a) {
                    std::fprintf(
                        f,
                        "  \"%s\": {\"completed\": %zu, \"shed\": %zu, "
                        "\"throughput_jobs_per_sim_s\": %.3f, "
                        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, "
                        "\"p99_ms\": %.4f, \"hit_rate\": %.4f}",
                        name, a.metrics.completed, a.metrics.shed,
                        a.metrics.throughput,
                        a.metrics.p50_latency * 1000.0,
                        a.metrics.p95_latency * 1000.0,
                        a.metrics.p99_latency * 1000.0, a.hit_fraction);
                };
                std::fprintf(f,
                             "{\n  \"bench\": \"zipf_sustained_load\",\n"
                             "  \"jobs\": %d,\n  \"items\": %d,\n"
                             "  \"zipf_s\": %.3f,\n  \"load\": %.3f,\n"
                             "  \"rate_jobs_per_sim_s\": %.3f,\n"
                             "  \"fleet\": %zu,\n",
                             zjobs, zitems, s, load, rate, fleet_size);
                arm_json("uncached", uncached);
                std::fprintf(f, ",\n");
                arm_json("cached", cached);
                std::fprintf(f,
                             ",\n  \"p99_gain\": %.4f,\n"
                             "  \"throughput_gain\": %.4f,\n"
                             "  \"pass\": %s\n}\n",
                             p99_gain, thr_gain,
                             zipf_pass ? "true" : "false");
                std::fclose(f);
                std::printf("bench json: %s\n", out_path.c_str());
            }
        }

        // Optional knee sweep: where does each dispatch policy start
        // shedding, and what does the cache do to that knee?
        if (zipf_knee) {
            Table knee({"load", "policy", "arm", "completed", "shed",
                        "p99 (ms)"});
            for (const double l : {0.6, 0.9, 1.2, 1.5}) {
                const double r = l * static_cast<double>(fleet_size)
                                 / mean_svc;
                const auto ks =
                    makeZipfStream(catalog, zjobs, s, r, seed);
                for (const auto policy : {farm::DispatchPolicy::Smart,
                                          farm::DispatchPolicy::Random}) {
                    for (const bool serve : {false, true}) {
                        const auto arm =
                            runZipfArm(ks, zbase, memo, serve, policy);
                        knee.beginRow();
                        knee.cell(l, 1);
                        knee.cell(farm::toString(policy));
                        knee.cell(serve ? "cached" : "uncached");
                        knee.cell(static_cast<int64_t>(
                            arm.metrics.completed));
                        knee.cell(
                            static_cast<int64_t>(arm.metrics.shed));
                        knee.cell(arm.metrics.p99_latency * 1000.0, 3);
                    }
                }
            }
            std::printf("\nshed/latency knee per dispatch policy:\n%s\n",
                        knee.toText().c_str());
        }
    }

    return (all_identical && smart_wins && chunk_pass && zipf_pass) ? 0
                                                                    : 1;
}
