/**
 * @file
 * A continuous transcoding-farm service: hundreds of upload->rendition
 * jobs stream into a bounded queue and are dispatched — no waves, no
 * barriers — across a heterogeneous pool of Table IV servers by the
 * characterization-driven smart dispatcher (the paper's §III-D2 scheduler
 * grown into a service). Compares dispatch policies end to end and prints
 * the run-log aggregate metrics; optionally writes the per-job JSON-lines
 * run log.
 *
 *   ./build/examples/transcode_farm [--jobs 48] [--seconds 0.4]
 *       [--workers 0] [--policy smart|random|round_robin|smart_deadline]
 *       [--queue fifo|priority|edf] [--faults 0.0] [--retries 2]
 *       [--seed 7] [--log runlog.jsonl] [--trace-out trace.json]
 *       [--metrics] [--verbose] [--uarch-report]
 *       [--uarch-report-out uarch.json] [--phase-window N]
 *
 * `--uarch-report[-out]` enables per-site µarch attribution across the
 * farm's worker runs (cycles, Top-down slots, and misses charged to code
 * sites) and prints/exports the aggregated attribution report;
 * `--phase-window N` additionally samples the attributed counters every
 * N retired instructions into counter tracks of the `--trace-out`
 * Chrome trace.
 *
 * With `--zipf-s S` the request stream's content popularity follows a
 * Zipf(S) distribution over the catalog (instead of round-robin) with
 * exponential inter-arrival gaps, and the content-addressed result
 * cache *serves* repeats: a job whose (source, params, class) digest is
 * already cached completes at hit cost, concurrent identical requests
 * single-flight behind one encode. `--cache-mb M` sets the byte budget
 * of the one-store cache in MiB (default 256; a negative or overflowing
 * value is fatal). The run prints the cache hit/miss/eviction counters
 * next to the service metrics.
 *
 * With `--chunked` every request is submitted as a GOP-chunked job graph
 * (split -> parallel chunk encodes -> dependent stitch, see
 * chunk/chunk.h): `--chunk-frames N` sets the boundary spacing in frames
 * (default 3), `--max-chunks M` caps the chunks per graph (0 = one per
 * GOP segment). The run log then carries per-graph boundary-cost deltas
 * vs the unchunked encode, and a graph summary is printed.
 */

#include <cstdio>
#include <vector>

#include "bench/benchutil.h"
#include "chunk/chunk.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/status.h"
#include "farm/farm.h"
#include "obs/hotspots.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/uarch.h"

namespace {

using namespace vtrans;

/** The service's job mix: content classes cycled with seeded priorities,
 *  deadlines, and Poisson-ish arrival spacing. */
std::vector<farm::JobRequest>
makeJobStream(int jobs, int retries, uint64_t seed, double zipf_s)
{
    const std::vector<sched::Task> catalog = {
        {"desktop", 30, 8, "veryfast"}, {"holi", 10, 1, "slow"},
        {"presentation", 35, 6, "veryfast"}, {"game2", 15, 2, "medium"},
        {"hall", 26, 3, "medium"},      {"bike", 20, 4, "fast"},
        {"chicken", 28, 2, "faster"},   {"girl", 24, 3, "medium"},
        {"cat", 23, 3, "fast"},         {"cricket", 21, 3, "veryfast"},
        {"house", 23, 3, "medium"},     {"landscape", 27, 2, "faster"},
    };
    Rng rng(seed);
    // Zipf mode: content popularity instead of round-robin — the
    // repeat-heavy shape of a real rendition service, which is what the
    // result cache converts into hit-cost completions.
    bench::ZipfSampler zipf(catalog.size(), zipf_s > 0.0 ? zipf_s : 1.0,
                            seed ^ 0x5a1full);
    std::vector<farm::JobRequest> stream;
    double t = 0.0;
    for (int i = 0; i < jobs; ++i) {
        farm::JobRequest req;
        req.task = catalog[zipf_s > 0.0 ? zipf.next()
                                        : i % catalog.size()];
        req.submit_time = t;
        req.priority = static_cast<int>(rng.below(3)); // 0..2
        if (rng.chance(0.3)) {
            // A third of the jobs are latency-sensitive (live-ish).
            req.deadline = t + 0.002 + 0.004 * rng.uniform();
        }
        req.retry_budget = retries;
        stream.push_back(req);
        // Mean inter-arrival ~0.25 ms of simulated time: enough pressure
        // to keep a backlog in front of the four-server fleet.
        t += zipf_s > 0.0 ? zipf.nextArrivalGap(4000.0)
                          : 0.0005 * rng.uniform();
    }
    return stream;
}

/** Prints a per-graph summary of a chunked run (stitch records). */
void
printGraphSummary(const farm::RunLog& log)
{
    size_t graphs = 0;
    size_t chunk_jobs = 0;
    size_t done = 0;
    double chunk_sum = 0.0;
    double stitch_sum = 0.0;
    double dpsnr_sum = 0.0;
    double dbitrate_sum = 0.0;
    for (const auto& r : log.records()) {
        if (r.kind == "chunk") {
            ++chunk_jobs;
            continue;
        }
        if (r.kind != "stitch") {
            continue;
        }
        ++graphs;
        chunk_sum += r.chunk_count;
        if (r.state == farm::JobState::Done) {
            ++done;
            stitch_sum += r.actual_seconds;
            dpsnr_sum += r.delta_psnr_db;
            dbitrate_sum += r.delta_bitrate_kbps;
        }
    }
    if (graphs == 0) {
        return;
    }
    std::printf("chunked graphs: %zu (%zu chunk jobs, %.1f chunks/graph, "
                "%zu stitched)\n",
                graphs, chunk_jobs, chunk_sum / graphs, done);
    if (done > 0) {
        std::printf("mean stitch latency: %.3f sim ms; boundary cost: "
                    "%+.3f dB PSNR, %+.1f kbps vs unchunked\n\n",
                    stitch_sum / done * 1000.0, dpsnr_sum / done,
                    dbitrate_sum / done);
    }
}

farm::FarmMetrics
runPolicy(const std::vector<farm::JobRequest>& stream,
          farm::DispatchPolicy policy, farm::QueuePolicy queue_policy,
          const farm::FarmOptions& base, bool print, std::string log_path,
          std::string trace_path = "",
          const chunk::ChunkOptions* chunking = nullptr)
{
    farm::FarmOptions options = base;
    options.dispatch = policy;
    options.queue_policy = queue_policy;
    farm::Farm service(options);
    // Route the workers' phase counter samples (if a --phase-window is
    // set) onto the same trace the job-lifecycle spans export to.
    if (obs::phaseWindow() > 0) {
        obs::setGlobalTracer(&service.tracer());
    }
    for (const auto& req : stream) {
        if (chunking != nullptr && chunking->enabled()) {
            service.submitChunked(req, *chunking);
        } else {
            service.submit(req);
        }
    }
    service.drain();
    if (obs::phaseWindow() > 0) {
        obs::setGlobalTracer(nullptr);
    }
    if (print) {
        std::printf("%s\n",
                    service.log().metricsTable(service.fleet())
                        .toText().c_str());
        printGraphSummary(service.log());
    }
    if (print && options.cache_serve_hits) {
        const farm::CacheStats cs = service.cacheDrainStats();
        size_t done = 0;
        size_t hits = 0;
        for (const auto& r : service.log().records()) {
            if (r.state == farm::JobState::Done) {
                ++done;
                hits += r.cache_hit ? 1 : 0;
            }
        }
        std::printf("result cache: %zu/%zu jobs served as hits "
                    "(%.1f%%); store: %llu lookups = %llu hits + %llu "
                    "misses, %llu single-flight waits, %llu evictions, "
                    "%.2f MiB in %llu entries\n\n",
                    hits, done,
                    done == 0 ? 0.0 : 100.0 * hits / done,
                    static_cast<unsigned long long>(cs.lookups),
                    static_cast<unsigned long long>(cs.hits),
                    static_cast<unsigned long long>(cs.misses),
                    static_cast<unsigned long long>(cs.inflight_waits),
                    static_cast<unsigned long long>(cs.evictions),
                    static_cast<double>(cs.bytes) / (1024.0 * 1024.0),
                    static_cast<unsigned long long>(cs.entries));
    }
    if (!log_path.empty()) {
        // A failed export must not take down the service run — the
        // results above are already computed and printed.
        if (service.log().writeJsonl(log_path)) {
            std::printf("wrote %zu run-log records to %s\n\n",
                        service.log().records().size(), log_path.c_str());
        } else {
            std::printf("run log NOT written: cannot open %s\n\n",
                        log_path.c_str());
        }
    }
    if (!trace_path.empty()) {
        if (service.writeTrace(trace_path)) {
            std::printf("wrote %zu job-lifecycle spans to %s\n\n",
                        service.spans().size(), trace_path.c_str());
        } else {
            std::printf("trace NOT written: cannot open %s\n\n",
                        trace_path.c_str());
        }
    }
    return service.metrics();
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    setVerbose(cli.has("verbose"));
    const int jobs = static_cast<int>(cli.num("jobs", 48));
    const int retries = static_cast<int>(cli.num("retries", 2));
    const uint64_t seed = static_cast<uint64_t>(cli.num("seed", 7));

    farm::FarmOptions base;
    base.clip_seconds = cli.real("seconds", 0.4);
    base.workers = static_cast<int>(cli.num("workers", 0));
    base.fault_rate = cli.real("faults", 0.0);
    base.verbose = cli.has("verbose");
    const double zipf_s = cli.real("zipf-s", 0.0);
    base.cache.max_bytes = bench::cacheBudgetBytes(cli);
    base.cache_serve_hits = zipf_s > 0.0;
    const auto queue_policy =
        farm::queuePolicyFromName(cli.str("queue", "fifo"));

    chunk::ChunkOptions chunking;
    if (cli.has("chunked")) {
        chunking.chunk_frames =
            static_cast<int>(cli.num("chunk-frames", 3));
        chunking.max_chunks = static_cast<int>(cli.num("max-chunks", 0));
    }

    const auto stream = makeJobStream(jobs, retries, seed, zipf_s);
    std::printf("Transcoding farm: %d jobs, %.2fs clips, fault rate "
                "%.0f%%, queue=%s%s%s\n\n",
                jobs, base.clip_seconds, base.fault_rate * 100.0,
                farm::toString(queue_policy).c_str(),
                chunking.enabled() ? ", chunked" : "",
                zipf_s > 0.0 ? ", zipf + result cache" : "");

    // Validate flags before any transcode, so a typo fails fast.
    const bool single_policy = cli.has("policy");
    const auto policy =
        farm::dispatchPolicyFromName(cli.str("policy", "smart"));
    const bool uarch_report = cli.has("uarch-report");
    const std::string uarch_out = cli.str("uarch-report-out", "");
    const int64_t phase = cli.num("phase-window", 0);
    const std::string log_path = cli.str("log", "");
    const std::string trace_path = cli.str("trace-out", "");
    const bool metrics = cli.has("metrics");
    cli.rejectUnknown();

    if (uarch_report || !uarch_out.empty()) {
        obs::setUarchAttributionEnabled(true);
        obs::hotspotReport().reset();
    }
    obs::setPhaseWindow(phase <= 0 ? 0 : static_cast<uint64_t>(phase));

    auto uarchReport = [&]() {
        if (uarch_report) {
            std::printf("\nuarch attribution (all attributed runs):\n%s\n",
                        obs::hotspotReport().uarchTable().c_str());
        }
        if (!uarch_out.empty()) {
            if (obs::hotspotReport().writeJson(uarch_out)) {
                std::printf("uarch attribution report: %s\n",
                            uarch_out.c_str());
            } else {
                std::printf("uarch report NOT written (cannot open %s)\n",
                            uarch_out.c_str());
            }
        }
    };

    if (single_policy) {
        // Single-policy mode: full metrics + optional JSONL run log
        // and Chrome trace of the job lifecycle.
        std::printf("policy: %s\n", farm::toString(policy).c_str());
        runPolicy(stream, policy, queue_policy, base, true,
                  log_path, trace_path,
                  &chunking);
        uarchReport();
        if (metrics) {
            std::printf("\n%s", obs::metrics().exposition().c_str());
        }
        return 0;
    }

    // Policy comparison: the same job stream under every dispatcher.
    Table t({"policy", "completed", "failed", "shed", "retries",
             "mean latency (ms)", "p95 (ms)", "makespan (ms)",
             "pred err"});
    farm::FarmMetrics random_m, smart_m;
    for (const auto policy :
         {farm::DispatchPolicy::RoundRobin, farm::DispatchPolicy::Random,
          farm::DispatchPolicy::Smart,
          farm::DispatchPolicy::SmartDeadline}) {
        const auto m =
            runPolicy(stream, policy, queue_policy, base, false, "");
        if (policy == farm::DispatchPolicy::Random) {
            random_m = m;
        }
        if (policy == farm::DispatchPolicy::Smart) {
            smart_m = m;
        }
        t.beginRow();
        t.cell(farm::toString(policy));
        t.cell(static_cast<int64_t>(m.completed));
        t.cell(static_cast<int64_t>(m.failed));
        t.cell(static_cast<int64_t>(m.shed));
        t.cell(static_cast<int64_t>(m.retries));
        t.cell(m.mean_latency * 1000.0, 3);
        t.cell(m.p95_latency * 1000.0, 3);
        t.cell(m.makespan * 1000.0, 3);
        t.cell(formatPercent(m.mean_prediction_error, 1));
    }
    std::printf("%s\n", t.toText().c_str());

    if (smart_m.mean_latency < random_m.mean_latency) {
        std::printf("smart dispatch beats random: mean latency %.3f ms "
                    "vs %.3f ms (%.1f%% lower)\n",
                    smart_m.mean_latency * 1000.0,
                    random_m.mean_latency * 1000.0,
                    (1.0 - smart_m.mean_latency / random_m.mean_latency)
                        * 100.0);
    } else {
        std::printf("smart dispatch did NOT beat random on this stream "
                    "(%.3f ms vs %.3f ms)\n",
                    smart_m.mean_latency * 1000.0,
                    random_m.mean_latency * 1000.0);
    }

    // Detailed metrics for the smart policy, plus optional run log and
    // job-lifecycle trace.
    std::printf("\nsmart-policy service metrics:\n");
    runPolicy(stream, farm::DispatchPolicy::Smart, queue_policy, base,
              true, log_path, trace_path);
    uarchReport();
    if (metrics) {
        std::printf("\n%s", obs::metrics().exposition().c_str());
    }
    return 0;
}
