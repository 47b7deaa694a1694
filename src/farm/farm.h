#ifndef VTRANS_FARM_FARM_H_
#define VTRANS_FARM_FARM_H_

/**
 * @file
 * The transcoding-farm service façade: submit jobs, drain the farm, read
 * the run log — the paper's one-shot scheduler study (§III-D2) grown into
 * a continuous multi-server service.
 *
 * ## Time and determinism model
 *
 * The farm operates on two clocks:
 *
 *  - *Simulated* time: the core model's clock. Job arrivals, deadlines,
 *    queue waits, service times and every run-log timestamp live here.
 *  - *Wall-clock* time: the worker pool executes the actual instrumented
 *    transcodes on real threads, in parallel.
 *
 * A drain runs four steps: characterize → plan → execute → account.
 * Planning is an online discrete-event simulation driven by *predicted*
 * service times (a real dispatcher cannot observe a job's runtime before
 * running it — the paper's smart scheduler likewise sees only its
 * calibration reference plus each task's baseline profile). Predictions
 * are calibrated from a reference workload and per-task baseline
 * characterizations, both measured with real instrumented runs. The
 * plan is a schedule — every attempt's server, order, retry link and
 * outcome, plus the jobs shed at admission or killed by a failed
 * dependency. Its attempts are executed on the worker pool, and the
 * account step re-times the same schedule with the measured simulated
 * durations, deciding nothing anew; the run log reports predicted vs.
 * actual per job.
 *
 * Because every scheduling decision depends only on seeds, predictions
 * and submit order — never on wall-clock — the run log and every per-job
 * `RunResult` are bit-identical for any worker count. `drain()` with
 * `workers = 1` is the serial reference the tests compare against.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "farm/cache.h"
#include "farm/dispatch.h"
#include "farm/job.h"
#include "farm/queue.h"
#include "farm/runlog.h"
#include "farm/server.h"
#include "obs/spans.h"
#include "uarch/config.h"

namespace vtrans::farm {

/** Configuration of a farm instance. */
struct FarmOptions
{
    /** Server pool; empty = the four Table IV variants. Config names must
     *  be Table IV names ("baseline" servers predict no speedup). */
    std::vector<uarch::CoreParams> pool;
    int replicas = 1;          ///< Servers per pool configuration.
    int workers = 0;           ///< Worker threads; 0 = hardware concurrency.

    QueuePolicy queue_policy = QueuePolicy::Fifo;
    DispatchPolicy dispatch = DispatchPolicy::Smart;
    size_t queue_capacity = 256;  ///< Backlog bound: arrivals into a full
                                  ///< backlog are shed; an admitted job's
                                  ///< retries always re-enter.
    size_t match_window = 8;      ///< Jobs the smart matcher may look at.

    double clip_seconds = 0.4;    ///< Clip length of every transcode.
    std::string reference_video = "bbb"; ///< Relief-calibration workload.

    double fault_rate = 0.0;      ///< Probability an attempt fails.
    uint64_t fault_seed = 0x5eedull;
    double backoff_base = 0.02;   ///< Simulated seconds; doubles per retry.
    double backoff_max = 2.0;     ///< Backoff ceiling (simulated seconds);
                                  ///< keeps deep retry budgets from pushing
                                  ///< retry expiry off the event clock.

    uint64_t rng_seed = 0x7a57ull; ///< Seed of the Random dispatch policy.
    bool verbose = false;

    // Content-addressed result cache (see farm/cache.h). The cache is
    // always the farm's result store — it replaces the old per-drain
    // results map, deduplicating identical work safely at any worker
    // count. Whether cache hits also *shorten the schedule* is a
    // separate, explicitly-opted-in modeling choice:
    CacheOptions cache;          ///< Sizing/TTL of the farm's own cache.
    /** Share an external cache instead of owning one: results persist
     *  across drain windows and across farms (warm starts, cross-farm
     *  single-flight). Null = the farm builds its own from `cache`. */
    std::shared_ptr<ResultCache> shared_cache;
    /** Model hit service times in the schedule: an attempt whose digest
     *  is already cached serves in `cache_hit_seconds`; one whose digest
     *  is being computed by an earlier in-flight attempt waits for that
     *  provider, then serves at hit cost (single-flight). OFF keeps the
     *  seed schedule bit-identical: every attempt is timed as a full
     *  encode even though the store already dedups the real work. */
    bool cache_serve_hits = false;
    double cache_hit_seconds = 5e-5; ///< Simulated service time of a hit
                                     ///< (result handoff; same scale as
                                     ///< the stitch remux byte model).
    /** Plan as if the cache started this drain empty: pre-existing
     *  entries are ignored by the scheduler (intra-drain hits still
     *  model), while execution still reuses them as a memo. This is the
     *  A/B lever — the bench's "cached" arm models a cold cache filling
     *  under load without re-encoding work a previous arm measured. */
    bool cache_plan_cold = false;
};

/**
 * Simulated-seconds backoff before retry `attempt_number + 1`:
 * exponential (`backoff_base * 2^attempt_number`) clamped to
 * `backoff_max`, so retry expiry stays bounded — and finite — for any
 * retry budget.
 */
double backoffAfter(const FarmOptions& options, int attempt_number);

/** A job as submitted by a client (the farm assigns ids and bookkeeping). */
struct JobRequest
{
    sched::Task task;
    double submit_time = 0.0; ///< Simulated arrival (seconds since start).
    double deadline = 0.0;    ///< Absolute simulated deadline; 0 = none.
    int priority = 0;
    int retry_budget = 0;
};

/** The transcoding-farm service. */
class Farm
{
  public:
    explicit Farm(FarmOptions options = {});

    Farm(const Farm&) = delete;
    Farm& operator=(const Farm&) = delete;

    /**
     * Submits a job (thread-safe) and returns its id. Submission is
     * open until `drain()`; admission control applies in simulated time
     * (jobs arriving into a full backlog are shed and logged as such).
     */
    uint64_t submit(const JobRequest& request);

    /**
     * Submits a request as a *job graph*: the source is split at
     * lookahead GOP/scenecut boundaries (see chunk/chunk.h), each chunk
     * becomes an independent encode job, and one dependent stitch job —
     * blocked on every chunk — remuxes the per-chunk bitstreams into the
     * final stream. Returns the stitch job's id (the graph's root); the
     * chunk jobs occupy the ids immediately below it. If chunking is
     * disabled (`!chunking.enabled()`), falls back to a plain `submit`.
     *
     * A failed chunk fails (or, within `retry_budget`, retries) the whole
     * graph: the stitch job is only dispatched once every chunk is Done,
     * and is recorded Failed if any chunk exhausts its budget.
     */
    uint64_t submitChunked(const JobRequest& request,
                           const chunk::ChunkOptions& chunking);

    /** Jobs submitted so far. */
    size_t submitted() const;

    /**
     * Runs the farm to completion: characterizes, plans, executes every
     * attempt on the worker pool, and builds the run log. Idempotent —
     * repeated calls return the same log.
     */
    const RunLog& drain();

    /** The run log (empty before `drain()`). */
    const RunLog& log() const { return log_; }

    /** Aggregate service metrics over the fleet (post-drain). */
    FarmMetrics metrics() const { return log_.metrics(fleet_); }

    /** The fleet, in id order. */
    const std::vector<Server>& fleet() const { return fleet_; }

    /** The calibrated predictor (fully populated after `drain()`). */
    const Predictor& predictor() const { return predictor_; }

    /**
     * Simulated-time spans over the job lifecycle (queue wait, dispatch
     * attempts, retry backoff, shed markers), recorded while `account()`
     * replays the measured timeline. Timestamps are the run log's
     * simulated seconds scaled to microseconds; attempt spans live on
     * one track per server, so in-track overlap would mean a broken
     * schedule. Empty before `drain()`.
     */
    const obs::SpanTracer& spans() const { return tracer_; }

    /** Mutable tracer access, so a caller can route additional tracks
     *  (e.g. the µarch phase counters, via obs::setGlobalTracer) into
     *  the same exported trace file. */
    obs::SpanTracer& tracer() { return tracer_; }

    /** Writes the job-lifecycle spans as Chrome trace-event JSON
     *  (Perfetto-viewable); false on I/O error. */
    [[nodiscard]] bool writeTrace(const std::string& path) const
    {
        return tracer_.writeChromeTrace(path);
    }

    /** The result cache (the farm's own, or the shared one). */
    ResultCache& cache() { return *cache_; }
    const ResultCache& cache() const { return *cache_; }

    /** Cache activity attributable to this farm's `drain()`: the
     *  counter deltas between drain start and end (gauge-like fields
     *  `bytes`/`entries` are the end-of-drain values). */
    CacheStats cacheDrainStats() const;

    /** Effective worker count. */
    int workers() const;

    const FarmOptions& options() const { return options_; }

    /**
     * Builds the probe-site registry if nothing has yet. Runs no
     * transcode: the site table (trace/sites.h) fixes every site's id
     * and default address before any codec code runs, whatever the
     * worker interleaving. Nothing needs to call it; benchmarks may, to
     * keep the one-time registry construction out of a timed region.
     */
    static void warmupProcess();

  private:
    struct Attempt;  // One planned dispatch (internal).
    struct Schedule; // Every decision plan() made (internal).

    /** The slice of a split plan one chunk job encodes. */
    struct ChunkWork
    {
        std::shared_ptr<const chunk::SplitPlan> plan;
        int first_segment = 0;
        int segment_count = 0;
    };

    /** One chunked submission (keyed by its stitch job id). */
    struct GraphInfo
    {
        sched::Task task;
        std::shared_ptr<const chunk::SplitPlan> plan;
        std::vector<uint64_t> chunk_ids;
    };

    /** The whole-video (unchunked) quality reference of a graph's task. */
    struct UnchunkedRef
    {
        double psnr = 0.0;
        double bitrate_kbps = 0.0;
    };

    void characterize(const std::vector<Job>& jobs);
    Schedule plan(std::vector<Job> jobs);
    void execute(const std::vector<Attempt>& attempts);
    void account(const std::vector<Job>& jobs, const Schedule& schedule);
    void recordMetrics() const;

    /** Runs the instrumented work behind a task signature once,
     *  simulated on every class of `classes`: chunk keys encode their
     *  plan slice, plain keys the whole clip. */
    std::vector<core::RunResult> runTask(
        const std::string& key, const sched::Task& task,
        const std::vector<uarch::CoreParams>& classes);

    /** Fetches (task, config) for every named config through the cache,
     *  computing every absent one in a single runTask() pass, and pins
     *  the values for this drain. Pool-safe. */
    std::vector<ResultCache::Value> runGroup(
        const std::string& key, const sched::Task& task,
        const std::vector<std::string>& configs);

    /** Computes (and memoizes) the content components of a task
     *  signature: the fingerprint of the exact source bytes the job
     *  encodes and the canonical digest of its encoder parameters.
     *  Serial-phase only (characterize), before any pool fan-out. */
    void digestKey(const std::string& key, const sched::Task& task);

    /** The content-addressed key of one unit of work: digestKey's
     *  components plus the executing server class. */
    CacheKey cacheKeyFor(const std::string& key,
                         const std::string& config) const;

    /** The pinned result of an executed (task, config) pair (fatal if
     *  execute() never scheduled it). */
    const core::RunResult& resultFor(const std::string& key,
                                     const std::string& config) const;

    FarmOptions options_;
    std::vector<Server> fleet_;
    std::unique_ptr<WorkerPool> pool_;
    Predictor predictor_;
    FaultInjector injector_;
    RunLog log_;
    obs::SpanTracer tracer_;

    mutable std::mutex submit_mu_;
    std::vector<Job> intake_;
    uint64_t next_id_ = 1;
    bool drained_ = false;

    std::map<std::string, sched::Task> key_tasks_; ///< Signature -> task.

    // Job-graph state (chunked submissions).
    std::map<std::string, ChunkWork> chunk_work_;  ///< Chunk key -> slice.
    std::map<uint64_t, GraphInfo> graphs_;         ///< Stitch id -> graph.
    std::map<std::string, UnchunkedRef> unchunked_refs_; ///< Task key -> ref.

    // The content-addressed result store (owned or shared; see
    // FarmOptions) and the digest components of every task signature.
    std::shared_ptr<ResultCache> cache_;
    CacheStats drain_base_; ///< Cache counters at drain start.
    struct KeyDigest
    {
        uint64_t source_fp = 0;     ///< FNV-1a of the exact source bytes.
        size_t source_bytes = 0;    ///< Their size (characterize order).
        uint64_t params_digest = 0; ///< codec::canonicalDigest of params.
    };
    std::map<std::string, KeyDigest> digests_; ///< Signature -> content.

    // Pins of every value this drain used: eviction can drop an entry
    // from the cache while account() still needs its bytes. Written by
    // the execute()/characterize() pool fan-outs under results_mu_,
    // read serially after the pool barrier.
    std::map<CacheKey, ResultCache::Value> drain_results_;
    std::mutex results_mu_;

    // Instrumented passes this farm paid for, and the class runs they
    // simulated (obs: farm_transcodes_total, farm_class_runs_total).
    std::atomic<uint64_t> transcodes_{0};
    std::atomic<uint64_t> class_runs_{0};
};

} // namespace vtrans::farm

#endif // VTRANS_FARM_FARM_H_
