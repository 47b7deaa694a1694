/**
 * @file
 * Tests of the transcoding-farm service layer: queue ordering;
 * dispatch-policy selection; deterministic fault injection and
 * retry/backoff semantics; admission control; end-to-end determinism
 * across worker counts; and thread safety of the shared mezzanine cache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chunk/chunk.h"
#include "codec/params.h"
#include "core/workload.h"
#include "farm/dispatch.h"
#include "farm/farm.h"
#include "farm/queue.h"
#include "farm/runlog.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "uarch/config.h"

namespace vtrans::farm {
namespace {

Job
makeJob(uint64_t id, double ready = 0.0, int priority = 0,
        double deadline = 0.0)
{
    Job job;
    job.id = id;
    job.task = {"cat", 23, 3, "fast"};
    job.submit_time = ready;
    job.ready_time = ready;
    job.priority = priority;
    job.deadline = deadline;
    return job;
}

/** A time past every ready time the queue tests use. */
constexpr double kLater = 10.0;

TEST(JobQueue, FifoServesInReadyOrder)
{
    JobQueue q(QueuePolicy::Fifo);
    q.push(makeJob(1, 0.3));
    q.push(makeJob(2, 0.1));
    q.push(makeJob(3, 0.2));
    EXPECT_EQ(q.tryPop(kLater)->id, 2u);
    EXPECT_EQ(q.tryPop(kLater)->id, 3u);
    EXPECT_EQ(q.tryPop(kLater)->id, 1u);
    EXPECT_FALSE(q.tryPop(kLater).has_value());
}

TEST(JobQueue, PriorityServesHigherFirstFifoWithin)
{
    JobQueue q(QueuePolicy::Priority);
    q.push(makeJob(1, 0.0, 0));
    q.push(makeJob(2, 0.1, 2));
    q.push(makeJob(3, 0.2, 2));
    q.push(makeJob(4, 0.3, 1));
    EXPECT_EQ(q.tryPop(kLater)->id, 2u);
    EXPECT_EQ(q.tryPop(kLater)->id, 3u);
    EXPECT_EQ(q.tryPop(kLater)->id, 4u);
    EXPECT_EQ(q.tryPop(kLater)->id, 1u);
}

TEST(JobQueue, EdfServesEarliestDeadlineDeadlinelessLast)
{
    JobQueue q(QueuePolicy::Edf);
    q.push(makeJob(1, 0.0, 0, 0.0)); // No deadline.
    q.push(makeJob(2, 0.0, 0, 5.0));
    q.push(makeJob(3, 0.0, 0, 2.0));
    EXPECT_EQ(q.tryPop(kLater)->id, 3u);
    EXPECT_EQ(q.tryPop(kLater)->id, 2u);
    EXPECT_EQ(q.tryPop(kLater)->id, 1u);
}

TEST(JobQueue, TimeAwarePopRespectsReadyTimes)
{
    JobQueue q(QueuePolicy::Fifo);
    q.push(makeJob(1, 0.5));
    q.push(makeJob(2, 1.5));
    EXPECT_FALSE(q.tryPop(0.0).has_value());
    EXPECT_EQ(q.tryPop(1.0)->id, 1u);
    EXPECT_FALSE(q.tryPop(1.0).has_value());
    EXPECT_EQ(q.tryPop(2.0)->id, 2u);
}

TEST(JobQueue, RemoveAndPeekWindow)
{
    JobQueue q(QueuePolicy::Fifo);
    q.push(makeJob(1));
    q.push(makeJob(2));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_TRUE(q.remove(1));
    EXPECT_FALSE(q.remove(1));
    q.push(makeJob(4));
    const auto window = q.peekWindow(0.0, 8);
    ASSERT_EQ(window.size(), 2u);
    EXPECT_EQ(window[0].id, 2u);
    EXPECT_EQ(window[1].id, 4u);
    EXPECT_EQ(q.peekWindow(0.0, 1).size(), 1u);
}

/** A predictor with a hand-built profile: backend-memory dominant. */
Predictor
syntheticPredictor(const std::string& key)
{
    Predictor p;
    uarch::TopDown profile;
    profile.retiring = 0.2;
    profile.frontend = 0.3;
    profile.bad_speculation = 0.1;
    profile.backend_memory = 0.3;
    profile.backend_core = 0.1;
    p.learn(key, 1.0, profile);
    p.setRelief({"fe_op", "be_op1"}, {0.2, 0.8});
    return p;
}

TEST(Dispatch, SmartPicksHighestFitIdleServer)
{
    const auto fleet = makeFleet(uarch::optimizedConfigs(), 1);
    // Fleet order: fe_op(0), be_op1(1), be_op2(2), bs_op(3).
    Job job = makeJob(1);
    const auto predictor = syntheticPredictor(job.key());
    // fit(fe_op) = 0.2 * 0.3 = 0.06; fit(be_op1) = 0.8 * 0.3 = 0.24.
    Rng rng(1);
    size_t cursor = 0;
    EXPECT_EQ(pickServerForJob(DispatchPolicy::Smart, job, predictor,
                               fleet, {0, 1, 2, 3}, 0.0, rng, cursor),
              1);
    // With the best-fit server busy, fall back to the next-best fit.
    EXPECT_EQ(pickServerForJob(DispatchPolicy::Smart, job, predictor,
                               fleet, {0, 2, 3}, 0.0, rng, cursor),
              0);
}

TEST(Dispatch, RoundRobinCyclesOverIdleServers)
{
    const auto fleet = makeFleet(uarch::optimizedConfigs(), 1);
    Job job = makeJob(1);
    const auto predictor = syntheticPredictor(job.key());
    Rng rng(1);
    size_t cursor = 0;
    std::vector<int> picks;
    for (int i = 0; i < 4; ++i) {
        picks.push_back(pickServerForJob(DispatchPolicy::RoundRobin, job,
                                         predictor, fleet, {0, 1, 2, 3},
                                         0.0, rng, cursor));
    }
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 3}));
    // A busy server is skipped, not waited for.
    EXPECT_EQ(pickServerForJob(DispatchPolicy::RoundRobin, job, predictor,
                               fleet, {1, 2, 3}, 0.0, rng, cursor),
              1);
}

TEST(Dispatch, RandomStaysWithinIdleSet)
{
    const auto fleet = makeFleet(uarch::optimizedConfigs(), 1);
    Job job = makeJob(1);
    const auto predictor = syntheticPredictor(job.key());
    Rng rng(42);
    size_t cursor = 0;
    const std::vector<int> idle{1, 3};
    for (int i = 0; i < 32; ++i) {
        const int pick = pickServerForJob(DispatchPolicy::Random, job,
                                          predictor, fleet, idle, 0.0,
                                          rng, cursor);
        EXPECT_TRUE(pick == 1 || pick == 3);
    }
}

TEST(Dispatch, SmartDeadlineFallsBackToFasterServer)
{
    const auto fleet = makeFleet(uarch::optimizedConfigs(), 1);
    Job job = makeJob(1);
    const auto predictor = syntheticPredictor(job.key());
    Rng rng(1);
    size_t cursor = 0;
    // be_op1 predicts 1.0 * (1 - 0.24) = 0.76s; a loose deadline keeps
    // the fit choice.
    job.deadline = 2.0;
    EXPECT_EQ(pickServerForJob(DispatchPolicy::SmartDeadline, job,
                               predictor, fleet, {0, 1}, 0.0, rng,
                               cursor),
              1);
    // be_op1 is busy; fe_op (0.94s) misses a 0.8s deadline and nothing
    // idle is faster, so the fit choice stands...
    job.deadline = 0.8;
    EXPECT_EQ(pickServerForJob(DispatchPolicy::SmartDeadline, job,
                               predictor, fleet, {0, 2}, 0.0, rng,
                               cursor),
              0);
    // ...but when be_op1 is idle and the fit pick would miss, the
    // dispatcher already prefers it (fit == fastest here). Force the
    // interesting case with an inverted relief: fe_op best fit, be_op1
    // faster.
    Predictor inverted;
    uarch::TopDown profile;
    profile.frontend = 0.6;
    profile.backend_memory = 0.3;
    inverted.learn(job.key(), 1.0, profile);
    // fit(fe_op) = 0.3*0.6 = 0.18 (best fit); fit(be_op1) = 0.9 (capped,
    // faster prediction).
    inverted.setRelief({"fe_op", "be_op1"}, {0.3, 4.0});
    job.deadline = 0.5; // fe_op predicts 0.82s: miss; be_op1 0.1s: make.
    EXPECT_EQ(pickServerForJob(DispatchPolicy::SmartDeadline, job,
                               inverted, fleet, {0, 1}, 0.0, rng,
                               cursor),
              1);
}

TEST(Backoff, ExponentialUntilClampedAtCeiling)
{
    FarmOptions options;
    options.backoff_base = 0.02;
    options.backoff_max = 2.0;
    EXPECT_DOUBLE_EQ(backoffAfter(options, 0), 0.02);
    EXPECT_DOUBLE_EQ(backoffAfter(options, 1), 0.04);
    EXPECT_DOUBLE_EQ(backoffAfter(options, 6), 1.28);
    // 0.02 * 2^7 = 2.56 crosses the ceiling: clamped from here on.
    EXPECT_DOUBLE_EQ(backoffAfter(options, 7), 2.0);
    EXPECT_DOUBLE_EQ(backoffAfter(options, 63), 2.0);
    // Past attempt ~1070 the unclamped term overflows to inf; the clamp
    // must keep the event clock finite regardless.
    EXPECT_DOUBLE_EQ(backoffAfter(options, 2000), 2.0);
}

TEST(RunLog, PercentileEdgeCases)
{
    EXPECT_DOUBLE_EQ(RunLog::percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(RunLog::percentile({7.5}, 0.0), 7.5);
    EXPECT_DOUBLE_EQ(RunLog::percentile({7.5}, 50.0), 7.5);
    EXPECT_DOUBLE_EQ(RunLog::percentile({7.5}, 100.0), 7.5);
    // Unsorted input is sorted internally.
    EXPECT_DOUBLE_EQ(RunLog::percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(RunLog::percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
    EXPECT_DOUBLE_EQ(RunLog::percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
    // Linear interpolation between ranks.
    EXPECT_DOUBLE_EQ(RunLog::percentile({1.0, 2.0, 3.0, 4.0}, 25.0), 1.75);
    EXPECT_DOUBLE_EQ(RunLog::percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
    // Out-of-range p clamps to the extremes instead of indexing out.
    EXPECT_DOUBLE_EQ(RunLog::percentile({1.0, 2.0}, -10.0), 1.0);
    EXPECT_DOUBLE_EQ(RunLog::percentile({1.0, 2.0}, 400.0), 2.0);
}

TEST(RunLog, FingerprintStableAcrossIdenticalRuns)
{
    core::RunConfig config;
    config.video = "cat";
    config.seconds = 0.1;
    config.params = codec::presetParams("fast");
    config.core = uarch::baselineConfig();
    const auto first = core::runInstrumented(config);
    const auto second = core::runInstrumented(config);
    EXPECT_NE(fingerprint(first), 0u);
    EXPECT_EQ(fingerprint(first), fingerprint(second));
    // A different parameter point produces a different digest.
    config.params.crf = 40;
    EXPECT_NE(fingerprint(core::runInstrumented(config)),
              fingerprint(first));
}

/** Run logs of different builds compare by fingerprint, so the hash
 *  order of the counters (uarch::kCoreStatsCounters) is a format: this
 *  independent list gives each counter a distinct value and pins the
 *  digest, so a reordered or missing table row fails here. */
TEST(RunLog, FingerprintOfFixedCountersIsPinned)
{
    core::RunResult r;
    uarch::CoreStats& c = r.core;
    uint64_t value = 0;
    for (uint64_t* field :
         {&c.instructions, &c.cycles, &c.branches, &c.branch_mispredicts,
          &c.l1d_accesses, &c.l1d_misses, &c.l2_misses, &c.l3_misses,
          &c.l1i_accesses, &c.l1i_misses, &c.itlb_misses, &c.btb_misses,
          &c.slots_total, &c.slots_retiring, &c.slots_frontend,
          &c.slots_bad_spec, &c.slots_backend_memory, &c.slots_backend_core,
          &c.slots_rob_stall, &c.slots_rs_stall, &c.slots_sb_stall}) {
        value += 1000003;
        *field = value;
    }
    EXPECT_EQ(fingerprint(r), 0x2a170f62b1340762ull);
}

TEST(FaultInjector, DeterministicPerAttemptAndCloseToRate)
{
    const FaultInjector inject(0.1, 0xabcdeull);
    int failures = 0;
    for (uint64_t job = 1; job <= 5000; ++job) {
        const bool verdict = inject.fails(job, 0);
        EXPECT_EQ(verdict, inject.fails(job, 0)); // Pure function.
        failures += verdict ? 1 : 0;
    }
    EXPECT_NEAR(failures / 5000.0, 0.1, 0.02);
    // Attempts draw independent verdicts.
    const FaultInjector always(1.0, 1);
    EXPECT_TRUE(always.fails(7, 0));
    EXPECT_TRUE(always.fails(7, 1));
    const FaultInjector never(0.0, 1);
    EXPECT_FALSE(never.fails(7, 0));
}

/** Small all-480p job stream so end-to-end tests stay fast. */
FarmOptions
fastOptions()
{
    FarmOptions options;
    options.pool = {uarch::beOp1Config(), uarch::bsOpConfig()};
    options.clip_seconds = 0.12;
    options.reference_video = "holi"; // 480p calibration reference.
    options.workers = 1;
    return options;
}

std::vector<JobRequest>
smallStream(int jobs, int retries)
{
    const std::vector<sched::Task> catalog = {
        {"cat", 23, 3, "fast"},
        {"holi", 26, 2, "veryfast"},
        {"cat", 30, 1, "ultrafast"},
    };
    std::vector<JobRequest> stream;
    for (int i = 0; i < jobs; ++i) {
        JobRequest req;
        req.task = catalog[i % catalog.size()];
        req.submit_time = 0.0002 * i;
        req.retry_budget = retries;
        stream.push_back(req);
    }
    return stream;
}

TEST(Farm, RetriesExhaustBudgetAndReportFailed)
{
    FarmOptions options = fastOptions();
    options.fault_rate = 1.0; // Every attempt fails.
    Farm service(options);
    for (const auto& req : smallStream(3, 2)) {
        service.submit(req);
    }
    const RunLog& log = service.drain();
    ASSERT_EQ(log.records().size(), 3u);
    for (const auto& rec : log.records()) {
        EXPECT_EQ(rec.state, JobState::Failed);
        EXPECT_EQ(rec.attempts, 3); // Initial try + retry budget of 2.
        EXPECT_GT(rec.finish, rec.submit);
    }
    const auto m = service.metrics();
    EXPECT_EQ(m.failed, 3u);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.retries, 6u);
}

TEST(Backoff, DeepRetryBudgetKeepsRetryExpiryBounded)
{
    FarmOptions options = fastOptions();
    options.fault_rate = 1.0; // Every attempt fails: budget fully drains.
    options.backoff_max = 0.05;
    Farm service(options);
    JobRequest req;
    req.task = {"cat", 23, 3, "ultrafast"};
    req.retry_budget = 64;
    service.submit(req);
    const RunLog& log = service.drain();
    ASSERT_EQ(log.records().size(), 1u);
    const JobRecord& rec = log.records().front();
    EXPECT_EQ(rec.state, JobState::Failed);
    EXPECT_EQ(rec.attempts, 65); // Initial try + 64 retries.
    ASSERT_TRUE(std::isfinite(rec.finish));
    // Unclamped, the backoff sum alone would be 0.02 * (2^64 - 1)
    // simulated seconds (~10^17); bounded, 65 attempts plus 64 waits of
    // at most 0.05s stay within ordinary service time.
    EXPECT_LT(rec.finish, rec.submit + 65 * 1.0 + 64 * 0.05);
}

TEST(Farm, PartialFaultsEveryJobAccountedFor)
{
    FarmOptions options = fastOptions();
    options.fault_rate = 0.3;
    // This seed fails three first attempts and exhausts one budget over
    // job ids 1..8 (the injector is a pure function of (seed, job,
    // attempt), so the mix is fixed, not flaky).
    options.fault_seed = 13;
    Farm service(options);
    for (const auto& req : smallStream(8, 2)) {
        service.submit(req);
    }
    service.drain();
    const auto m = service.metrics();
    EXPECT_EQ(m.submitted, 8u);
    EXPECT_EQ(m.completed + m.failed + m.shed, 8u);
    EXPECT_EQ(m.shed, 0u);
    EXPECT_GT(m.retries, 0u);
    EXPECT_GE(m.failed, 1u);
    EXPECT_GE(m.completed, 1u);
    for (const auto& rec : service.log().records()) {
        EXPECT_TRUE(rec.state == JobState::Done
                    || rec.state == JobState::Failed);
        EXPECT_GE(rec.attempts, 1);
        EXPECT_LE(rec.attempts, 3);
    }

    // The measured timeline keeps every retry behind its backoff: an
    // attempt starts no earlier than the previous attempt of the same
    // job ended, plus the backoff after that attempt.
    std::map<std::pair<std::string, int>, obs::Span> attempts;
    for (const obs::Span& span : service.spans().spans()) {
        if (span.name != "attempt") {
            continue;
        }
        std::map<std::string, std::string> args(span.args.begin(),
                                                span.args.end());
        attempts.emplace(std::make_pair(args.at("job"),
                                        std::stoi(args.at("attempt"))),
                         span);
    }
    int retried = 0;
    for (const auto& [id, span] : attempts) {
        if (id.second == 0) {
            continue;
        }
        const obs::Span& prev = attempts.at({id.first, id.second - 1});
        const double backoff_us = backoffAfter(options, id.second - 1) * 1e6;
        // 1e-6 us absorbs the seconds-to-microseconds rounding.
        EXPECT_GE(span.ts_us, prev.ts_us + prev.dur_us + backoff_us - 1e-6)
            << "job " << id.first << " attempt " << id.second;
        ++retried;
    }
    EXPECT_EQ(static_cast<size_t>(retried), m.retries);
}

TEST(Farm, RetryIntoFullQueueIsAdmitted)
{
    // Regression: a retry whose backoff expired while the backlog was
    // full used to stay parked with a ready time in the past, which
    // stalled the planner's event clock and aborted the whole drain.
    // Capacity bounds arrivals only; an admitted job's retry re-enters.
    FarmOptions options = fastOptions();
    options.pool = {uarch::beOp1Config()};
    options.queue_capacity = 1;
    options.fault_rate = 1.0;
    Farm service(options);
    constexpr int kJobs = 800;
    for (int i = 0; i < kJobs; ++i) {
        JobRequest req;
        req.task = {"cat", 30, 1, "ultrafast"};
        req.submit_time = 40e-6 * i;
        req.retry_budget = 1;
        service.submit(req);
    }
    service.drain();
    const auto m = service.metrics();
    EXPECT_EQ(m.submitted, static_cast<size_t>(kJobs));
    EXPECT_EQ(m.completed + m.failed + m.shed, m.submitted);
    EXPECT_GT(m.shed, 0u);
    EXPECT_GT(m.failed, 0u);
    for (const auto& rec : service.log().records()) {
        if (rec.state == JobState::Failed) {
            EXPECT_EQ(rec.attempts, 2); // Every admitted job retried.
        }
    }
}

TEST(Farm, AdmissionControlShedsOverCapacity)
{
    FarmOptions options = fastOptions();
    options.queue_capacity = 2;
    Farm service(options);
    // Six simultaneous arrivals against two queue slots: admission runs
    // before dispatch within the arrival instant, so two jobs are
    // admitted (and immediately dispatched) and four are shed.
    for (int i = 0; i < 6; ++i) {
        JobRequest req;
        req.task = {"cat", 23, 3, "ultrafast"};
        req.submit_time = 0.0;
        service.submit(req);
    }
    service.drain();
    const auto m = service.metrics();
    EXPECT_EQ(m.submitted, 6u);
    EXPECT_EQ(m.shed, 4u);
    EXPECT_EQ(m.completed, 2u);
    for (const auto& rec : service.log().records()) {
        if (rec.state == JobState::Shed) {
            EXPECT_EQ(rec.server, -1);
            EXPECT_EQ(rec.attempts, 0);
        }
    }
}

TEST(Farm, AllShedRunKeepsAggregatesAtZero)
{
    // Regression: a run whose every job is shed has an empty timeline.
    // Makespan, throughput, latency percentiles, queue wait and every
    // utilization must come back 0, never NaN/inf from a 0/0.
    FarmOptions options = fastOptions();
    options.queue_capacity = 0; // Always-full queue: shed all arrivals.
    Farm service(options);
    for (const auto& req : smallStream(4, 0)) {
        service.submit(req);
    }
    const RunLog& log = service.drain();
    ASSERT_EQ(log.records().size(), 4u);
    for (const auto& rec : log.records()) {
        EXPECT_EQ(rec.state, JobState::Shed);
    }
    const auto m = service.metrics();
    EXPECT_EQ(m.submitted, 4u);
    EXPECT_EQ(m.shed, 4u);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.makespan, 0.0);
    EXPECT_EQ(m.throughput, 0.0);
    EXPECT_EQ(m.mean_latency, 0.0);
    EXPECT_EQ(m.p50_latency, 0.0);
    EXPECT_EQ(m.p99_latency, 0.0);
    EXPECT_EQ(m.mean_queue_wait, 0.0);
    EXPECT_EQ(m.mean_prediction_error, 0.0);
    for (size_t s = 0; s < service.fleet().size(); ++s) {
        EXPECT_EQ(m.utilization(s), 0.0);
    }
    // The aggregate table renders without tripping any assertion.
    EXPECT_GT(log.metricsTable(service.fleet()).rows(), 0u);
}

TEST(RunLog, WriteJsonlReportsFailureInsteadOfAborting)
{
    RunLog log;
    JobRecord rec;
    rec.id = 1;
    rec.video = "cat";
    log.add(rec);
    // Unwritable destination: failure is reported, not fatal.
    EXPECT_FALSE(log.writeJsonl("/nonexistent-dir/sub/never/log.jsonl"));
    // Writable destination still succeeds.
    const std::string path =
        ::testing::TempDir() + "/vtrans_runlog_io_test.jsonl";
    EXPECT_TRUE(log.writeJsonl(path));
    std::remove(path.c_str());
}

TEST(Farm, DeterministicAcrossWorkerCounts)
{
    const auto stream = smallStream(6, 1);
    std::string serial_jsonl;
    {
        FarmOptions options = fastOptions();
        options.fault_rate = 0.25; // Exercise retries too.
        options.workers = 1;
        Farm service(options);
        for (const auto& req : stream) {
            service.submit(req);
        }
        serial_jsonl = service.drain().toJsonl();
    }
    {
        FarmOptions options = fastOptions();
        options.fault_rate = 0.25;
        options.workers = 3;
        Farm service(options);
        for (const auto& req : stream) {
            service.submit(req);
        }
        EXPECT_EQ(service.drain().toJsonl(), serial_jsonl);
    }
}

/** The lone instrumented run of a Done record's work on its server
 *  class: the whole clip, or for a chunk job its slice of the split. */
core::RunResult
loneRun(const Farm& farm, const JobRecord& rec,
        const chunk::ChunkOptions& chunking)
{
    const sched::Task task{rec.video, rec.crf, rec.refs, rec.preset};
    core::RunConfig cfg;
    cfg.video = task.video;
    cfg.seconds = farm.options().clip_seconds;
    cfg.params = task.params();
    cfg.core = uarch::configByName(farm.fleet()[rec.server].config);
    if (rec.kind != "chunk") {
        return core::runInstrumented(cfg);
    }
    const auto plan =
        core::cachedSplit(task.video, cfg.seconds, cfg.params, chunking);
    const auto groups =
        chunk::groupSegments(plan->segments.size(), chunking.max_chunks);
    const auto [first, count] = groups.at(rec.chunk_index);
    std::vector<const std::vector<uint8_t>*> slices;
    for (int i = 0; i < count; ++i) {
        slices.push_back(&plan->segments[first + i].source);
    }
    cfg.keep_output = true;
    return core::runInstrumentedChunk(slices, cfg, {cfg.core}).front();
}

/** A drain runs each task signature's server classes as one shared pass:
 *  at 1 and 4 workers, plain and chunked, every Done record's result must
 *  still be the lone run of its work on its class, the cache must
 *  reconcile, and the drain must have paid fewer codec passes than class
 *  runs. */
TEST(Farm, GroupedPassesMatchLoneRuns)
{
    chunk::ChunkOptions chunking;
    chunking.chunk_frames = 3;
    auto& transcodes = obs::metrics().counter(
        "farm_transcodes_total", "Instrumented codec passes the farm ran");
    auto& class_runs = obs::metrics().counter(
        "farm_class_runs_total",
        "Server-class simulations the farm's passes produced");
    for (bool chunked : {false, true}) {
        for (int workers : {1, 4}) {
            const std::string what = std::string(chunked ? "chunked" : "plain")
                                     + " workers=" + std::to_string(workers);
            FarmOptions options; // The four Table IV classes.
            options.clip_seconds = 0.12;
            options.reference_video = "cat";
            options.workers = workers;
            Farm farm(options);
            for (const auto& req : smallStream(9, 0)) {
                if (chunked) {
                    farm.submitChunked(req, chunking);
                } else {
                    farm.submit(req);
                }
            }
            const uint64_t transcodes0 = transcodes.value();
            const uint64_t class_runs0 = class_runs.value();
            size_t checked = 0;
            for (const JobRecord& rec : farm.drain().records()) {
                if (rec.state != JobState::Done || rec.kind == "stitch") {
                    continue;
                }
                EXPECT_EQ(rec.result_fingerprint,
                          fingerprint(loneRun(farm, rec, chunking)))
                    << what << " job " << rec.id << " on " << rec.server_name;
                ++checked;
            }
            EXPECT_GE(checked, 9u) << what;
            const CacheStats cs = farm.cacheDrainStats();
            EXPECT_EQ(cs.hits + cs.misses, cs.lookups) << what;
            EXPECT_EQ(class_runs.value() - class_runs0, cs.misses) << what;
            EXPECT_LT(transcodes.value() - transcodes0,
                      class_runs.value() - class_runs0)
                << what;
        }
    }
}

TEST(Farm, RunLogJsonlHasOneRecordPerJob)
{
    FarmOptions options = fastOptions();
    Farm service(options);
    for (const auto& req : smallStream(3, 0)) {
        service.submit(req);
    }
    const std::string jsonl = service.drain().toJsonl();
    size_t lines = 0;
    for (char ch : jsonl) {
        lines += ch == '\n' ? 1 : 0;
    }
    EXPECT_EQ(lines, 3u);
    EXPECT_NE(jsonl.find("\"predicted_seconds\":"), std::string::npos);
    EXPECT_NE(jsonl.find("\"actual_seconds\":"), std::string::npos);
    EXPECT_NE(jsonl.find("\"fingerprint\":"), std::string::npos);
    // Every completed job carries a real result.
    for (const auto& rec : service.log().records()) {
        EXPECT_EQ(rec.state, JobState::Done);
        EXPECT_GT(rec.actual_seconds, 0.0);
        EXPECT_GT(rec.predicted_seconds, 0.0);
        EXPECT_NE(rec.result_fingerprint, 0u);
    }
}

TEST(Mezzanine, SharedCacheSurvivesConcurrentFirstUse)
{
    // Eight threads race the same two cache keys; every reference must
    // point at identical bytes (and at the same stable storage per key).
    constexpr int kThreads = 8;
    std::vector<const std::vector<uint8_t>*> cat(kThreads);
    std::vector<const std::vector<uint8_t>*> holi(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            cat[i] = &core::mezzanine("cat", 0.1);
            holi[i] = &core::mezzanine("holi", 0.1);
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    for (int i = 1; i < kThreads; ++i) {
        EXPECT_EQ(cat[i], cat[0]);
        EXPECT_EQ(holi[i], holi[0]);
    }
    EXPECT_FALSE(cat[0]->empty());
    EXPECT_NE(cat[0], holi[0]);
}

} // namespace
} // namespace vtrans::farm
