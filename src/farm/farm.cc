#include "farm/farm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "codec/decoder.h"
#include "codec/params.h"
#include "common/status.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "trace/probe.h"
#include "video/quality.h"

namespace vtrans::farm {

/** One planned dispatch of a job onto a server. */
struct Farm::Attempt
{
    /** How the result cache serves this attempt (cache_serve_hits on).
     *  `None` is the serve-OFF mode: every attempt timed as a full
     *  encode, schedule bit-identical to the pre-cache farm. */
    enum class Cache : uint8_t {
        None,    ///< Hit modeling off (or fixed-time stitch).
        Compute, ///< This attempt runs the encode (or faulted mid-run).
        Hit,     ///< Ready entry: serves in cache_hit_seconds.
        Wait,    ///< Single-flight wait on an in-flight provider.
    };

    uint64_t job_id = 0;
    std::string key;          ///< Task signature of the job.
    int server = 0;           ///< Fleet id.
    int number = 0;           ///< 0-based attempt number.
    double predicted = 0;     ///< Predicted seconds on this server.
    bool failed = false;      ///< Fault-injector verdict.
    bool fixed = false;       ///< Known service time (stitch job).
    Cache cache = Cache::None;
    int provider = -1;        ///< Attempt index this Wait rides on.
    int previous = -1;        ///< This job's earlier attempt; -1 = none.
    bool final = false;       ///< This attempt's outcome is the job's.
};

/**
 * Every scheduling decision of one drain, made once by plan() on
 * predicted service times. account() re-times it with measured ones and
 * decides nothing of its own: retry order, dependency release, shedding
 * and graph failure all come from here.
 */
struct Farm::Schedule
{
    std::vector<Attempt> attempts;        ///< Every dispatch, in order.
    std::map<uint64_t, int> last_attempt; ///< Job id -> its last attempt.
    std::set<uint64_t> shed;              ///< Rejected at admission.
    std::set<uint64_t> dead;              ///< Killed by a failed dependency.
};

namespace {

/** The chunk-free task signature (Job::key() of a plain job). */
std::string
taskKey(const sched::Task& task)
{
    return task.video + "/" + task.preset + "/c" + std::to_string(task.crf)
           + "/r" + std::to_string(task.refs);
}

} // namespace

double
backoffAfter(const FarmOptions& options, int attempt_number)
{
    // The unclamped term overflows to inf past attempt ~1070; std::min
    // pins that (and every merely absurd finite value) to the ceiling.
    const double raw =
        options.backoff_base * std::pow(2.0, attempt_number);
    return std::min(raw, options.backoff_max);
}

void
Farm::warmupProcess()
{
    trace::registry();
}

Farm::Farm(FarmOptions options)
    : options_(std::move(options)),
      injector_(options_.fault_rate, options_.fault_seed)
{
    auto pool =
        options_.pool.empty() ? uarch::optimizedConfigs() : options_.pool;
    fleet_ = makeFleet(pool, options_.replicas);
    int workers = options_.workers;
    if (workers <= 0) {
        workers = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (workers < 1) {
        workers = 1;
    }
    pool_ = std::make_unique<WorkerPool>(workers);
    cache_ = options_.shared_cache
                 ? options_.shared_cache
                 : std::make_shared<ResultCache>(options_.cache);
}

int
Farm::workers() const
{
    return pool_->workers();
}

uint64_t
Farm::submit(const JobRequest& request)
{
    std::lock_guard<std::mutex> lock(submit_mu_);
    VT_ASSERT(!drained_, "cannot submit to a drained farm");
    Job job;
    job.id = next_id_++;
    job.task = request.task;
    job.submit_time = request.submit_time;
    job.deadline = request.deadline;
    job.priority = request.priority;
    job.retry_budget = request.retry_budget;
    job.ready_time = request.submit_time;
    intake_.push_back(job);
    return job.id;
}

uint64_t
Farm::submitChunked(const JobRequest& request,
                    const chunk::ChunkOptions& chunking)
{
    if (!chunking.enabled()) {
        return submit(request);
    }
    auto plan = core::cachedSplit(request.task.video, options_.clip_seconds,
                                  request.task.params(), chunking);
    const auto groups =
        chunk::groupSegments(plan->segments.size(), chunking.max_chunks);
    const int gop = chunking.chunk_frames > 0 ? chunking.chunk_frames
                                              : request.task.params().keyint;
    const double stitch_seconds = chunk::stitchSeconds(
        core::mezzanine(request.task.video, options_.clip_seconds).size());

    std::lock_guard<std::mutex> lock(submit_mu_);
    VT_ASSERT(!drained_, "cannot submit to a drained farm");
    const uint64_t stitch_id = next_id_ + groups.size();
    GraphInfo graph;
    graph.task = request.task;
    graph.plan = plan;
    for (size_t g = 0; g < groups.size(); ++g) {
        Job job;
        job.id = next_id_++;
        job.task = request.task;
        job.submit_time = request.submit_time;
        job.deadline = request.deadline;
        job.priority = request.priority;
        job.retry_budget = request.retry_budget;
        job.ready_time = request.submit_time;
        job.parent_id = stitch_id;
        job.chunk_index = static_cast<int>(g);
        const int first_segment = groups[g].first;
        const int segment_count = groups[g].second;
        job.chunk_first = plan->segments[first_segment].first_frame;
        int frames = 0;
        for (int i = 0; i < segment_count; ++i) {
            frames += plan->segments[first_segment + i].frame_count;
        }
        job.chunk_frames = frames;
        job.chunk_gop = gop;
        chunk_work_.emplace(job.key(),
                            ChunkWork{plan, first_segment, segment_count});
        graph.chunk_ids.push_back(job.id);
        intake_.push_back(job);
    }

    Job stitch;
    stitch.id = next_id_++;
    VT_ASSERT(stitch.id == stitch_id, "stitch id drifted");
    stitch.task = request.task;
    stitch.submit_time = request.submit_time;
    stitch.deadline = request.deadline;
    stitch.priority = request.priority;
    stitch.retry_budget = request.retry_budget;
    stitch.ready_time = request.submit_time;
    stitch.blocked_by = graph.chunk_ids;
    stitch.chunk_count = static_cast<int>(groups.size());
    stitch.chunk_frames = plan->total_frames;
    stitch.chunk_gop = gop;
    stitch.fixed_seconds = stitch_seconds;
    graphs_.emplace(stitch_id, std::move(graph));
    intake_.push_back(stitch);
    return stitch_id;
}

size_t
Farm::submitted() const
{
    std::lock_guard<std::mutex> lock(submit_mu_);
    return intake_.size();
}

void
Farm::digestKey(const std::string& key, const sched::Task& task)
{
    if (digests_.count(key)) {
        return;
    }
    KeyDigest d;
    d.params_digest = codec::canonicalDigest(task.params());
    const auto it = chunk_work_.find(key);
    if (it == chunk_work_.end()) {
        const auto& bytes =
            core::mezzanine(task.video, options_.clip_seconds);
        d.source_fp = fnv1a(bytes.data(), bytes.size());
        d.source_bytes = bytes.size();
    } else {
        // A chunk encodes its slice set as independent closed-GOP units,
        // so its content is the *framed* slice sequence: a "chunk" tag
        // plus each slice's length keep a one-chunk graph from aliasing
        // the whole-clip encode of the same bytes, and distinct slice
        // partitions from aliasing each other.
        const ChunkWork& work = it->second;
        uint64_t fp = fnv1a(std::string("chunk:"));
        for (int i = 0; i < work.segment_count; ++i) {
            const auto& src =
                work.plan->segments[work.first_segment + i].source;
            fp = fnv1a(std::to_string(src.size()) + "/", fp);
            fp = fnv1a(src.data(), src.size(), fp);
            d.source_bytes += src.size();
        }
        d.source_fp = fp;
    }
    digests_.emplace(key, d);
}

CacheKey
Farm::cacheKeyFor(const std::string& key, const std::string& config) const
{
    return makeCacheKey(digests_.at(key).source_fp,
                        digests_.at(key).params_digest, config);
}

const core::RunResult&
Farm::resultFor(const std::string& key, const std::string& config) const
{
    return *drain_results_.at(cacheKeyFor(key, config));
}

CacheStats
Farm::cacheDrainStats() const
{
    const CacheStats now = cache_->stats();
    CacheStats d;
    d.lookups = now.lookups - drain_base_.lookups;
    d.hits = now.hits - drain_base_.hits;
    d.misses = now.misses - drain_base_.misses;
    d.inflight_waits = now.inflight_waits - drain_base_.inflight_waits;
    d.evictions = now.evictions - drain_base_.evictions;
    d.expirations = now.expirations - drain_base_.expirations;
    d.rejected = now.rejected - drain_base_.rejected;
    d.bytes = now.bytes;
    d.entries = now.entries;
    return d;
}

void
Farm::characterize(const std::vector<Job>& jobs)
{
    // Unique task signatures (first job seen defines the task). Stitch
    // jobs carry a fixed, known service time and run no transcode, so
    // they need neither characterization nor a predictor profile.
    for (const Job& job : jobs) {
        if (job.fixed_seconds > 0.0) {
            continue;
        }
        key_tasks_.emplace(job.key(), job.task);
    }

    // Unique optimized config names, pool order ("baseline" servers need
    // no calibration: they predict no speedup by construction).
    std::vector<std::string> cal_names;
    for (const Server& s : fleet_) {
        if (s.config != "baseline"
            && std::find(cal_names.begin(), cal_names.end(), s.config)
                   == cal_names.end()) {
            cal_names.push_back(s.config);
        }
    }

    // The calibration reference (paper §III-D2: "profiling results used
    // as a reference"), run on baseline and on every optimized config.
    sched::Task ref;
    ref.video = options_.reference_video;
    const std::string ref_key = "reference/" + options_.reference_video;

    // Content digests of every signature, hashed serially before any
    // pool fan-out (the mezzanine/slice bytes are generated here too,
    // so workers only ever read them).
    digestKey(ref_key, ref);
    for (const auto& [key, task] : key_tasks_) {
        digestKey(key, task);
    }

    // Every characterization pass is independent: fan out on the pool,
    // through the cache — a warm entry (prior drain, sibling farm) skips
    // the encode entirely, and single-flight dedups identical signatures
    // racing across farms. The calibration reference is one pass over
    // the baseline and every optimized config; every task signature is
    // one baseline pass. With no predictions yet, the longest work is
    // estimated by the source bytes a pass encodes times its class
    // count, and queued first so it cannot end the phase alone.
    struct Pass
    {
        std::string key;
        sched::Task task;
        std::vector<std::string> configs;
        std::vector<ResultCache::Value> results;
    };
    std::vector<Pass> passes;
    std::vector<std::string> ref_configs{"baseline"};
    ref_configs.insert(ref_configs.end(), cal_names.begin(),
                       cal_names.end());
    passes.push_back({ref_key, ref, ref_configs, {}});
    for (const auto& [key, task] : key_tasks_) {
        passes.push_back({key, task, {"baseline"}, {}});
    }
    std::vector<Pass*> order;
    for (Pass& pass : passes) {
        order.push_back(&pass);
    }
    auto weight = [this](const Pass* p) {
        return digests_.at(p->key).source_bytes * p->configs.size();
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](const Pass* a, const Pass* b) {
                         return weight(a) > weight(b);
                     });
    std::vector<std::function<void()>> tasks;
    for (Pass* pass : order) {
        tasks.push_back([this, pass] {
            pass->results = runGroup(pass->key, pass->task, pass->configs);
        });
    }
    if (options_.verbose) {
        VT_INFORM("farm: characterizing ", key_tasks_.size() + 1,
                  " task signatures (", cal_names.size(),
                  " calibration configs) on ", pool_->workers(),
                  " workers");
    }
    pool_->run(std::move(tasks));

    // Calibrate relief and learn every task's baseline profile.
    const auto& ref_base = *passes.front().results.front();
    std::vector<double> cal_seconds;
    for (size_t c = 1; c < passes.front().results.size(); ++c) {
        cal_seconds.push_back(passes.front().results[c]->transcode_seconds);
    }
    if (!cal_names.empty()) {
        predictor_.setRelief(
            cal_names,
            sched::calibrateRelief(ref_base.core.topdown(),
                                   ref_base.transcode_seconds, cal_names,
                                   cal_seconds));
    }
    for (const Pass& pass : passes) {
        predictor_.learn(pass.key, pass.results.front()->transcode_seconds,
                         pass.results.front()->core.topdown());
    }
}

std::vector<core::RunResult>
Farm::runTask(const std::string& key, const sched::Task& task,
              const std::vector<uarch::CoreParams>& classes)
{
    core::RunConfig cfg;
    cfg.video = task.video;
    cfg.seconds = options_.clip_seconds;
    cfg.params = task.params();
    const auto it = chunk_work_.find(key);
    if (it == chunk_work_.end()) {
        return core::runInstrumented(cfg, classes);
    }
    // A chunk job encodes its slice of the split plan — each segment an
    // independent closed-GOP unit — instead of the whole clip.
    const ChunkWork& work = it->second;
    std::vector<const std::vector<uint8_t>*> slices;
    slices.reserve(work.segment_count);
    for (int i = 0; i < work.segment_count; ++i) {
        slices.push_back(
            &work.plan->segments[work.first_segment + i].source);
    }
    cfg.keep_output = true; // The stitch job consumes the bitstream.
    return core::runInstrumentedChunk(slices, cfg, classes);
}

std::vector<ResultCache::Value>
Farm::runGroup(const std::string& key, const sched::Task& task,
               const std::vector<std::string>& configs)
{
    std::vector<CacheKey> keys;
    for (const std::string& config : configs) {
        keys.push_back(cacheKeyFor(key, config));
    }
    std::vector<ResultCache::Value> values = cache_->getOrComputeGroup(
        keys, [&](const std::vector<size_t>& missing) {
            std::vector<uarch::CoreParams> classes;
            for (size_t i : missing) {
                classes.push_back(uarch::configByName(configs[i]));
            }
            transcodes_.fetch_add(1, std::memory_order_relaxed);
            class_runs_.fetch_add(classes.size(), std::memory_order_relaxed);
            return runTask(key, task, classes);
        });
    std::lock_guard<std::mutex> lock(results_mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
        drain_results_.emplace(keys[i], values[i]);
    }
    return values;
}

Farm::Schedule
Farm::plan(std::vector<Job> jobs)
{
    JobQueue queue(options_.queue_policy);
    std::vector<Job> retries; // Waiting out their backoff.
    std::vector<double> busy(fleet_.size(), 0.0);
    Rng rng(options_.rng_seed);
    size_t rr_cursor = 0;
    size_t next_arrival = 0;
    Schedule schedule;
    std::vector<Attempt>& attempts = schedule.attempts;

    // Final-outcome events on the event clock, feeding the queue's
    // dependency bookkeeping: a job's last attempt completing (markDone)
    // or exhausting its budget (markFailed) can unblock — or kill — a
    // dependent stitch job.
    struct Completion
    {
        double time = 0.0;
        uint64_t job_id = 0;
        bool success = false;
    };
    std::vector<Completion> completions;

    // Collects jobs whose dependency failed: they can never dispatch, so
    // they leave the queue as a dead graph (and count as failures of
    // their own, in case anything depends on them transitively).
    auto reap = [&] {
        while (true) {
            auto dead = queue.takeDead();
            if (dead.empty()) {
                return;
            }
            for (const Job& job : dead) {
                schedule.dead.insert(job.id);
                queue.markFailed(job.id);
            }
        }
    };

    const bool matching =
        options_.dispatch == DispatchPolicy::Smart
        || options_.dispatch == DispatchPolicy::SmartDeadline;

    // Cache-hit modeling (cache_serve_hits): the planner runs the same
    // state machine the store itself implements — the first dispatch of
    // a digest computes and *provides*; dispatches while the provider is
    // still running wait on it (single-flight) and serve at hit cost
    // when it lands; dispatches after it landed, or whose digest is
    // already cached from a prior drain, are plain hits. Everything is
    // decided on the event clock, so the schedule stays bit-identical
    // at any worker count.
    const bool serve = options_.cache_serve_hits;
    const double hit_cost = std::max(options_.cache_hit_seconds, 1e-9);
    struct Provider
    {
        double finish = 0.0; ///< Event-clock finish of the compute.
        int index = -1;      ///< Index into `attempts`.
    };
    std::map<CacheKey, Provider> providers;

    double t = jobs.empty() ? 0.0 : jobs.front().submit_time;
    while (true) {
        // Deliver final outcomes that have come due on the event clock
        // so dependent jobs become eligible (or dead) before dispatch.
        std::sort(completions.begin(), completions.end(),
                  [](const Completion& a, const Completion& b) {
                      return a.time != b.time ? a.time < b.time
                                              : a.job_id < b.job_id;
                  });
        while (!completions.empty() && completions.front().time <= t) {
            const Completion c = completions.front();
            completions.erase(completions.begin());
            if (c.success) {
                queue.markDone(c.job_id);
            } else {
                queue.markFailed(c.job_id);
            }
        }
        reap();

        // Re-queue retries whose backoff has expired, before admitting
        // new arrivals (a retry takes backlog space first). A retry
        // belongs to a job already admitted, so it always re-enters:
        // capacity bounds arrivals only. The queue orders by policy,
        // never by push order, so the order retries re-enter in is
        // immaterial.
        for (auto r = retries.begin(); r != retries.end();) {
            if (r->ready_time <= t) {
                queue.push(std::move(*r));
                r = retries.erase(r);
            } else {
                ++r;
            }
        }

        // Admission control, the one place that sheds: an arrival into a
        // full backlog is rejected. A shed job counts as failed for
        // dependency purposes — a graph missing a chunk can never stitch.
        for (; next_arrival < jobs.size()
               && jobs[next_arrival].submit_time <= t;
             ++next_arrival) {
            const Job& job = jobs[next_arrival];
            if (queue.size() >= options_.queue_capacity) {
                schedule.shed.insert(job.id);
                queue.markFailed(job.id);
            } else {
                queue.push(job);
            }
        }
        reap();

        // Dispatch onto every idle server the policy finds work for.
        std::vector<int> idle;
        for (size_t s = 0; s < fleet_.size(); ++s) {
            if (busy[s] <= t) {
                idle.push_back(static_cast<int>(s));
            }
        }
        while (!idle.empty()) {
            Job job;
            int server = -1;
            if (matching) {
                // Characterization-driven matching: among the first
                // match_window jobs in queue-policy order, take the
                // (job, idle server) pair with the best predicted fit.
                const auto window =
                    queue.peekWindow(t, options_.match_window);
                if (window.empty()) {
                    break;
                }
                double best_score = -1.0;
                for (const Job& candidate : window) {
                    // A fixed-time job (stitch) gains nothing from server
                    // matching: any idle server remuxes at the same
                    // speed, so it takes the first one at a neutral
                    // score and yields the window to real transcodes.
                    int s = 0;
                    double score = 0.0;
                    if (candidate.fixed_seconds > 0.0) {
                        s = idle.front();
                    } else {
                        s = pickServerForJob(options_.dispatch, candidate,
                                             predictor_, fleet_, idle, t,
                                             rng, rr_cursor);
                        score = predictor_.fit(candidate.key(),
                                               fleet_[s].config);
                    }
                    if (score > best_score) {
                        best_score = score;
                        job = candidate;
                        server = s;
                    }
                }
                queue.remove(job.id);
            } else {
                auto popped = queue.tryPop(t);
                if (!popped) {
                    break;
                }
                job = *popped;
                server = job.fixed_seconds > 0.0
                             ? idle.front()
                             : pickServerForJob(options_.dispatch, job,
                                                predictor_, fleet_, idle,
                                                t, rng, rr_cursor);
            }

            const bool fixed = job.fixed_seconds > 0.0;
            double predicted =
                fixed ? job.fixed_seconds
                      : predictor_.predict(job.key(), fleet_[server].config);
            const bool fails = injector_.fails(job.id, job.attempts);
            const int index = static_cast<int>(attempts.size());
            Attempt att;
            att.job_id = job.id;
            att.key = job.key();
            att.server = server;
            att.number = job.attempts;
            att.failed = fails;
            att.fixed = fixed;
            att.final = !fails || att.number >= job.retry_budget;
            if (att.number > 0) {
                att.previous = schedule.last_attempt.at(job.id);
            }
            schedule.last_attempt[job.id] = index;
            if (serve && !fixed) {
                const CacheKey ck =
                    cacheKeyFor(job.key(), fleet_[server].config);
                const auto pv = providers.find(ck);
                const bool landed =
                    pv != providers.end() && pv->second.finish <= t;
                const bool warm = !options_.cache_plan_cold
                                  && pv == providers.end()
                                  && cache_->contains(ck);
                if (fails) {
                    // A faulted attempt burns the full encode and never
                    // publishes: the fault/retry pattern is identical
                    // with the cache on or off.
                    att.cache = Attempt::Cache::Compute;
                } else if (warm || landed) {
                    att.cache = Attempt::Cache::Hit;
                    predicted = hit_cost;
                } else if (pv != providers.end()) {
                    att.cache = Attempt::Cache::Wait;
                    att.provider = pv->second.index;
                    predicted = (pv->second.finish - t) + hit_cost;
                } else {
                    att.cache = Attempt::Cache::Compute;
                    providers[ck] = {t + predicted, index};
                }
            }
            att.predicted = predicted;
            busy[server] = t + predicted;
            idle.erase(std::find(idle.begin(), idle.end(), server));
            ++job.attempts;
            if (att.final) {
                // Final outcome: queue the dependency event.
                completions.push_back({t + predicted, job.id, !fails});
            } else {
                job.ready_time =
                    t + predicted + backoffAfter(options_, att.number);
                retries.push_back(job);
            }
            attempts.push_back(std::move(att));
        }

        // Advance the event clock: next arrival, retry expiry, or server
        // completion — whichever comes first.
        const bool work_left = !queue.empty() || !retries.empty()
                               || next_arrival < jobs.size();
        if (!work_left) {
            break;
        }
        double next = std::numeric_limits<double>::infinity();
        if (next_arrival < jobs.size()) {
            next = std::min(next, jobs[next_arrival].submit_time);
        }
        for (const Job& r : retries) {
            next = std::min(next, r.ready_time);
        }
        if (!queue.empty()) {
            for (double b : busy) {
                if (b > t) {
                    next = std::min(next, b);
                }
            }
        }
        VT_ASSERT(next > t && std::isfinite(next),
                  "farm planner stalled at t=", t);
        t = next;
    }
    return schedule;
}

void
Farm::execute(const std::vector<Attempt>& attempts)
{
    // Unique content digests still to run; retries, replicas of the
    // same config, and aliased signatures reuse one deterministic
    // result — a warm cache entry costs no encode at all, and
    // single-flight dedups races against sibling farms on a shared
    // cache. Fixed-time stitch attempts run no transcode — but each
    // graph needs the *unchunked* whole-video encode of its task as
    // the quality reference the run log reports boundary cost against.
    std::vector<std::pair<std::string, std::string>> pending;
    std::set<CacheKey> scheduled;
    std::vector<std::pair<std::string, sched::Task>> ref_pending;
    for (const Attempt& a : attempts) {
        if (a.fixed) {
            const auto g = graphs_.find(a.job_id);
            if (g == graphs_.end()) {
                continue;
            }
            const std::string base = taskKey(g->second.task);
            if (unchunked_refs_.count(base) == 0
                && std::find_if(ref_pending.begin(), ref_pending.end(),
                                [&](const auto& p) {
                                    return p.first == base;
                                })
                       == ref_pending.end()) {
                ref_pending.push_back({base, g->second.task});
            }
            continue;
        }
        const CacheKey ck = cacheKeyFor(a.key, fleet_[a.server].config);
        if (drain_results_.count(ck) != 0 || !scheduled.insert(ck).second) {
            continue;
        }
        pending.push_back({a.key, fleet_[a.server].config});
    }
    // One pool task per task signature: a single instrumented pass
    // simulates every config the signature still needs. Groups go
    // longest-predicted-first (summed over their configs), which keeps
    // the pool balanced near the tail.
    struct Group
    {
        std::string key;
        std::vector<std::string> configs;
        double predicted = 0.0;
    };
    std::vector<Group> groups;
    for (const auto& [key, config] : pending) {
        auto g = std::find_if(groups.begin(), groups.end(),
                              [&](const Group& x) { return x.key == key; });
        if (g == groups.end()) {
            groups.push_back({key, {}, 0.0});
            g = std::prev(groups.end());
        }
        g->configs.push_back(config);
        g->predicted += predictor_.predict(key, config);
    }
    std::sort(groups.begin(), groups.end(),
              [](const Group& a, const Group& b) {
                  return a.predicted != b.predicted ? a.predicted > b.predicted
                                                    : a.key < b.key;
              });

    std::vector<std::function<void()>> tasks;
    for (Group& group : groups) {
        tasks.push_back([this, &group] {
            runGroup(group.key, key_tasks_.at(group.key), group.configs);
        });
    }
    for (const auto& ref : ref_pending) {
        tasks.push_back([this, ref] {
            // Native (uninstrumented) run: only the encode outcome
            // matters for the quality deltas, and the encode is a pure
            // function of input + params — identical on every config.
            core::RunConfig cfg;
            cfg.video = ref.second.video;
            cfg.seconds = options_.clip_seconds;
            cfg.params = ref.second.params();
            const codec::EncodeStats stats = core::runNative(cfg);
            std::lock_guard<std::mutex> lock(results_mu_);
            unchunked_refs_.emplace(ref.first,
                                    UnchunkedRef{stats.psnr,
                                                 stats.bitrate_kbps});
        });
    }
    if (options_.verbose) {
        VT_INFORM("farm: executing ", pending.size(), " unique runs in ",
                  groups.size(), " passes for ", attempts.size(),
                  " attempts on ", pool_->workers(), " workers");
    }
    pool_->run(std::move(tasks));
}

void
Farm::account(const std::vector<Job>& jobs, const Schedule& schedule)
{
    // Re-time the planned schedule against the *measured* simulated
    // durations: assignments, per-server order, retries, dependency
    // release and graph failure stay exactly as plan() decided; only
    // start/finish times shift to what the fleet actually took. The
    // re-timing is also where the job-lifecycle spans are emitted: every
    // quantity a span needs (queue wait, attempt start/finish, backoff
    // window) is computed right here, in simulated time.
    constexpr double kUsPerSimSecond = 1e6;
    tracer_.setTrackName(1, 0, "dispatch queue");
    for (size_t s = 0; s < fleet_.size(); ++s) {
        tracer_.setTrackName(1, static_cast<int64_t>(1 + s),
                             "server " + fleet_[s].name);
    }
    // The two span shapes of the dispatch-queue track: a marker for one
    // job, and an async begin/end pair paired by job id.
    auto instant = [&](const char* name, double at, uint64_t job_id) {
        obs::Span span;
        span.kind = obs::Span::Kind::Instant;
        span.category = "farm";
        span.name = name;
        span.tid = 0;
        span.ts_us = at * kUsPerSimSecond;
        span.args = {{"job", std::to_string(job_id)}};
        tracer_.recordEvent(std::move(span));
    };
    auto asyncPair = [&](const char* name, uint64_t job_id, double begin,
                         double end, const char* arg_key,
                         uint64_t arg_value) {
        obs::Span span;
        span.kind = obs::Span::Kind::AsyncBegin;
        span.category = "farm";
        span.name = name;
        span.id = job_id;
        span.tid = 0;
        span.ts_us = begin * kUsPerSimSecond;
        span.args = {{arg_key, std::to_string(arg_value)}};
        tracer_.recordEvent(span);
        span.kind = obs::Span::Kind::AsyncEnd;
        span.ts_us = end * kUsPerSimSecond;
        span.args.clear();
        tracer_.recordEvent(std::move(span));
    };

    std::map<uint64_t, JobRecord> records;
    for (const Job& job : jobs) {
        JobRecord rec;
        rec.id = job.id;
        rec.video = job.task.video;
        rec.preset = job.task.preset;
        rec.crf = job.task.crf;
        rec.refs = job.task.refs;
        rec.priority = job.priority;
        rec.parent_id = job.parent_id;
        rec.chunk_index = std::max(job.chunk_index, 0);
        rec.chunk_count = job.chunk_count;
        rec.kind = job.isStitch() ? "stitch"
                                  : (job.isChunk() ? "chunk" : "transcode");
        rec.submit = job.submit_time;
        rec.deadline = job.deadline;
        if (schedule.shed.count(job.id) != 0) {
            rec.state = JobState::Shed;
            rec.finish = job.submit_time;
            instant("shed", job.submit_time, job.id);
        }
        records.emplace(job.id, std::move(rec));
    }

    std::map<std::string, codec::DecodeResult> mezz_decoded;
    auto mezzFrames = [&](const std::string& video)
        -> const std::vector<video::Frame>& {
        auto it = mezz_decoded.find(video);
        if (it == mezz_decoded.end()) {
            it = mezz_decoded
                     .emplace(video, codec::decode(core::mezzanine(
                                         video, options_.clip_seconds)))
                     .first;
        }
        return it->second.frames;
    };

    const std::vector<Attempt>& attempts = schedule.attempts;
    const double hit_cost = std::max(options_.cache_hit_seconds, 1e-9);
    std::vector<double> server_free(fleet_.size(), 0.0);
    std::vector<double> finish(attempts.size(), 0.0);
    // A failed attempt's job becomes ready again one backoff after it.
    auto retryReady = [&](int i) {
        return finish[i] + backoffAfter(options_, attempts[i].number);
    };
    for (size_t ai = 0; ai < attempts.size(); ++ai) {
        const Attempt& a = attempts[ai];
        JobRecord& rec = records.at(a.job_id);

        double actual = 0.0;
        double dep_ready = 0.0;
        const core::RunResult* result = nullptr;
        std::vector<uint8_t> stitched;
        if (a.fixed) {
            // The stitch job's real work: remux the chunk bitstreams —
            // in chunk order — into the final stream. The planner only
            // dispatched it once every chunk's final attempt succeeded,
            // so those attempts name the results (and the finish times)
            // it waits on.
            std::vector<const std::vector<uint8_t>*> outputs;
            for (uint64_t dep : graphs_.at(a.job_id).chunk_ids) {
                const int d = schedule.last_attempt.at(dep);
                outputs.push_back(
                    &resultFor(attempts[d].key,
                               fleet_[attempts[d].server].config)
                         .output);
                dep_ready = std::max(dep_ready, finish[d]);
            }
            stitched = chunk::stitch(outputs);
            actual = chunk::stitchSeconds(stitched.size());
        } else {
            result = &resultFor(a.key, fleet_[a.server].config);
            actual = a.cache == Attempt::Cache::Hit
                         ? hit_cost
                         : result->transcode_seconds;
        }
        const double ready =
            a.previous < 0 ? rec.submit : retryReady(a.previous);
        const double start =
            std::max({ready, server_free[a.server], dep_ready});
        double end = start + actual;
        if (a.cache == Attempt::Cache::Wait) {
            // Single-flight replay with *measured* times: this attempt
            // rides its provider — it serves at hit cost once the
            // provider's (measured) compute lands, however that differs
            // from the planned timeline.
            end = std::max(finish[a.provider], start) + hit_cost;
            actual = end - start;
        }
        server_free[a.server] = end;
        finish[ai] = end;

        if (a.previous < 0) {
            rec.start = start;
            rec.queue_wait = start - rec.submit;
            asyncPair("queue", a.job_id, rec.submit, start, "job",
                      a.job_id);
        }
        rec.attempts = a.number + 1;
        rec.server = a.server;
        rec.server_name = fleet_[a.server].name;
        rec.cache_hit = a.cache == Attempt::Cache::Hit
                        || a.cache == Attempt::Cache::Wait;
        rec.predicted_seconds = a.predicted;
        rec.actual_seconds = actual;
        rec.finish = end;
        if (a.fixed) {
            // Real measured quality of the stitched stream, against the
            // same reference the unchunked path uses (the decoded
            // mezzanine), so the deltas below are exact boundary cost.
            const GraphInfo& g = graphs_.at(a.job_id);
            rec.psnr = video::sequencePsnr(codec::decode(stitched).frames,
                                           mezzFrames(g.task.video));
            const double duration =
                static_cast<double>(g.plan->total_frames) / g.plan->fps;
            rec.bitrate_kbps = static_cast<double>(stitched.size()) * 8.0
                               / 1000.0 / duration;
            rec.result_fingerprint = chunk::streamFingerprint(stitched);
            const auto ref = unchunked_refs_.find(taskKey(g.task));
            if (ref != unchunked_refs_.end()) {
                rec.delta_psnr_db = rec.psnr - ref->second.psnr;
                rec.delta_bitrate_kbps =
                    rec.bitrate_kbps - ref->second.bitrate_kbps;
            }
        } else {
            rec.psnr = result->psnr;
            rec.bitrate_kbps = result->bitrate_kbps;
            rec.topdown = result->core.topdown();
            rec.result_fingerprint = fingerprint(*result);
        }

        obs::Span attempt;
        attempt.category = "farm";
        attempt.name = a.fixed ? "stitch" : "attempt";
        attempt.tid = 1 + a.server;
        attempt.ts_us = start * kUsPerSimSecond;
        attempt.dur_us = actual * kUsPerSimSecond;
        attempt.args = {{"job", std::to_string(a.job_id)},
                        {"attempt", std::to_string(a.number)},
                        {"task", a.key},
                        {"outcome", a.failed ? "fault" : "ok"}};
        if (a.cache != Attempt::Cache::None) {
            attempt.args.emplace_back(
                "cache", a.cache == Attempt::Cache::Hit
                             ? "hit"
                             : (a.cache == Attempt::Cache::Wait
                                    ? "wait"
                                    : "compute"));
        }
        if (rec.parent_id != 0) {
            attempt.args.emplace_back("parent",
                                      std::to_string(rec.parent_id));
            attempt.args.emplace_back("chunk",
                                      std::to_string(rec.chunk_index));
        }
        if (a.fixed) {
            attempt.args.emplace_back("chunks",
                                      std::to_string(rec.chunk_count));
        }
        tracer_.recordComplete(std::move(attempt));

        if (!a.failed) {
            rec.state = JobState::Done;
        } else if (a.final) {
            rec.state = JobState::Failed;
        } else {
            // Retry backoff window as an async pair on the queue track,
            // distinguished from the queue wait by name.
            rec.state = JobState::Pending;
            asyncPair("backoff", a.job_id, end, retryReady(ai), "attempt",
                      a.number);
        }
    }

    // Jobs killed by a failed dependency never dispatched: record the
    // graph failure at the moment the last dependency resolved.
    for (const Job& job : jobs) {
        if (schedule.dead.count(job.id) == 0) {
            continue;
        }
        JobRecord& rec = records.at(job.id);
        rec.state = JobState::Failed;
        rec.finish = rec.submit;
        for (uint64_t dep : job.blocked_by) {
            const auto d = schedule.last_attempt.find(dep);
            if (d != schedule.last_attempt.end()) {
                rec.finish = std::max(rec.finish, finish[d->second]);
            }
        }
        instant("dep-failed", rec.finish, job.id);
    }

    for (const Job& job : jobs) {
        log_.add(records.at(job.id));
    }
}

const RunLog&
Farm::drain()
{
    {
        std::lock_guard<std::mutex> lock(submit_mu_);
        if (drained_) {
            return log_;
        }
        drained_ = true;
    }
    drain_base_ = cache_->stats();

    std::vector<Job> jobs;
    {
        std::lock_guard<std::mutex> lock(submit_mu_);
        jobs = intake_;
    }
    std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
        return a.submit_time != b.submit_time
                   ? a.submit_time < b.submit_time
                   : a.id < b.id;
    });

    if (!jobs.empty()) {
        characterize(jobs);
        const Schedule schedule = plan(jobs);
        execute(schedule.attempts);
        account(jobs, schedule);
    }
    recordMetrics();
    // Age the cache by the drain's simulated duration: TTL expiry runs
    // on the same clock every other farm decision does.
    cache_->advance(log_.metrics(fleet_).makespan);
    return log_;
}

void
Farm::recordMetrics() const
{
    auto& reg = obs::metrics();
    const FarmMetrics m = log_.metrics(fleet_);
    reg.counter("farm_jobs_submitted_total", "Jobs submitted to the farm")
        .inc(m.submitted);
    reg.counter("farm_jobs_completed_total", "Jobs completed successfully")
        .inc(m.completed);
    reg.counter("farm_jobs_failed_total",
                "Jobs that exhausted their retry budget")
        .inc(m.failed);
    reg.counter("farm_jobs_shed_total", "Jobs shed at admission control")
        .inc(m.shed);
    reg.counter("farm_retries_total", "Extra dispatch attempts beyond the first")
        .inc(m.retries);
    reg.counter("farm_transcodes_total",
                "Instrumented codec passes the farm ran (one per task "
                "signature and phase, however many classes it simulated)")
        .inc(transcodes_.load());
    reg.counter("farm_class_runs_total",
                "Server-class simulations the farm's passes produced")
        .inc(class_runs_.load());
    reg.counter("farm_deadline_misses_total",
                "Completed jobs that missed their deadline")
        .inc(m.deadline_misses);
    reg.gauge("farm_makespan_sim_seconds",
              "Simulated makespan of the last drained farm")
        .set(m.makespan);
    reg.gauge("farm_throughput_jobs_per_sim_second",
              "Completed jobs per simulated second of the last drain")
        .set(m.throughput);
    const CacheStats cs = cacheDrainStats();
    if (cs.lookups > 0 || cs.entries > 0) {
        reg.counter("cache_hits_total",
                    "Result-cache lookups served from a ready entry")
            .inc(cs.hits);
        reg.counter("cache_misses_total",
                    "Result-cache lookups that required a compute")
            .inc(cs.misses);
        reg.counter("cache_inflight_waits_total",
                    "Lookups that blocked on an in-flight compute")
            .inc(cs.inflight_waits);
        reg.counter("cache_evictions_total",
                    "Entries evicted for the byte/entry budget")
            .inc(cs.evictions);
        reg.counter("cache_expirations_total",
                    "Entries dropped past their TTL")
            .inc(cs.expirations);
        reg.gauge("cache_bytes", "Bytes retained in the result cache")
            .set(static_cast<double>(cs.bytes));
        reg.gauge("cache_entries", "Entries retained in the result cache")
            .set(static_cast<double>(cs.entries));
    }
    auto& latency = reg.histogram(
        "farm_job_latency_sim_seconds",
        "Submit-to-finish latency of completed jobs (simulated seconds)");
    auto& wait = reg.histogram(
        "farm_job_queue_wait_sim_seconds",
        "Submit-to-first-dispatch wait of serviced jobs (simulated seconds)");
    size_t chunk_jobs = 0;
    size_t graphs = 0;
    for (const JobRecord& r : log_.records()) {
        if (r.state == JobState::Done) {
            latency.observe(r.latency());
        }
        if (r.state == JobState::Done || r.state == JobState::Failed) {
            wait.observe(r.queue_wait);
        }
        chunk_jobs += r.kind == "chunk" ? 1 : 0;
        graphs += r.kind == "stitch" ? 1 : 0;
    }
    if (chunk_jobs == 0 && graphs == 0) {
        return; // Plain farm: don't register empty chunk metrics.
    }
    reg.counter("chunk_jobs_total", "Chunk encode jobs of split transcodes")
        .inc(chunk_jobs);
    reg.counter("chunk_graphs_total",
                "Chunked transcode graphs (stitch jobs) submitted")
        .inc(graphs);
    auto& per_graph = reg.histogram("chunk_chunks_per_graph",
                                    "Chunk jobs per transcode graph");
    auto& stitch_latency = reg.histogram(
        "chunk_stitch_latency_sim_seconds",
        "Service time of stitch jobs (simulated seconds)");
    auto& delta_psnr = reg.histogram(
        "chunk_boundary_delta_psnr_db",
        "Stitched minus unchunked PSNR (chunk-boundary quality cost)");
    auto& delta_bitrate = reg.histogram(
        "chunk_boundary_delta_bitrate_kbps",
        "Stitched minus unchunked bitrate (chunk-boundary size cost)");
    for (const JobRecord& r : log_.records()) {
        if (r.kind != "stitch") {
            continue;
        }
        per_graph.observe(r.chunk_count);
        if (r.state == JobState::Done) {
            stitch_latency.observe(r.actual_seconds);
            delta_psnr.observe(r.delta_psnr_db);
            delta_bitrate.observe(r.delta_bitrate_kbps);
        }
    }
}

} // namespace vtrans::farm
