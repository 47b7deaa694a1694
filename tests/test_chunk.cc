/**
 * @file
 * Tests of the GOP-chunked distributed transcode path: split/stitch
 * round-trips, grouping- and worker-invariance of the stitched bytes,
 * IDR-set determinism, job-graph dependency semantics on the farm
 * (stitch-after-chunks, failure propagation, retries), and the queue's
 * blocked-job semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "codec/decoder.h"
#include "codec/params.h"
#include "core/workload.h"
#include "farm/farm.h"
#include "farm/queue.h"
#include "farm/runlog.h"
#include "uarch/config.h"

namespace vtrans {
namespace {

constexpr double kClipSeconds = 0.3; // 9 frames of "cat" at 29 fps.

codec::EncoderParams
targetParams()
{
    codec::EncoderParams params = codec::presetParams("ultrafast");
    params.crf = 30;
    params.refs = 1;
    return params;
}

/** A small all-baseline farm (no calibration work, cheap to drain). */
farm::FarmOptions
lightFarm(int workers)
{
    farm::FarmOptions options;
    options.pool = {uarch::baselineConfig()};
    options.replicas = 2;
    options.workers = workers;
    options.clip_seconds = kClipSeconds;
    options.reference_video = "cat";
    return options;
}

farm::JobRequest
request(int retry_budget = 0)
{
    farm::JobRequest req;
    req.task = {"cat", 30, 1, "ultrafast"};
    req.retry_budget = retry_budget;
    return req;
}

/** A farm request chunked at `chunk_frames` spacing into at most
 *  `max_chunks` chunk jobs. */
chunk::ChunkOptions
chunking(int chunk_frames, int max_chunks = 0)
{
    chunk::ChunkOptions options;
    options.chunk_frames = chunk_frames;
    options.max_chunks = max_chunks;
    return options;
}

/** The stitched stream of `request()` under `options`, built the way the
 *  farm's chunk and stitch jobs build it: one instrumented chunk encode
 *  per segment group of the shared split plan, stitched in order. */
std::vector<uint8_t>
stitchedStream(const chunk::ChunkOptions& options)
{
    const auto plan =
        core::cachedSplit("cat", kClipSeconds, targetParams(), options);
    core::RunConfig cfg;
    cfg.video = "cat";
    cfg.seconds = kClipSeconds;
    cfg.params = targetParams();
    cfg.keep_output = true;
    std::vector<core::RunResult> runs;
    for (const auto& [first, count] :
         chunk::groupSegments(plan->segments.size(), options.max_chunks)) {
        std::vector<const std::vector<uint8_t>*> slices;
        for (int k = 0; k < count; ++k) {
            slices.push_back(&plan->segments[first + k].source);
        }
        runs.push_back(
            core::runInstrumentedChunk(slices, cfg, {cfg.core}).front());
    }
    std::vector<const std::vector<uint8_t>*> outputs;
    for (const core::RunResult& run : runs) {
        outputs.push_back(&run.output);
    }
    return chunk::stitch(outputs);
}

constexpr int kMaxChunks[] = {1, 2, 4, 8};

/** One farm of `workers` running a one-frame-spaced graph of
 *  `request()` per kMaxChunks entry; returns their stitch records (in
 *  kMaxChunks order) and the run log. */
std::vector<farm::JobRecord>
graphsByMaxChunks(int workers, std::string* jsonl = nullptr)
{
    farm::Farm farm(lightFarm(workers));
    std::vector<uint64_t> ids;
    for (int max_chunks : kMaxChunks) {
        ids.push_back(farm.submitChunked(request(), chunking(1, max_chunks)));
    }
    const farm::RunLog& log = farm.drain();
    std::vector<farm::JobRecord> out;
    for (uint64_t id : ids) {
        out.push_back(log.record(id));
    }
    if (jsonl != nullptr) {
        *jsonl = log.toJsonl();
    }
    return out;
}

TEST(ChunkSplit, BoundariesComeFromLookaheadAndCoverTheClip)
{
    const auto& source = core::mezzanine("cat", kClipSeconds);
    chunk::ChunkOptions opts;
    opts.chunk_frames = 3;
    const chunk::SplitPlan plan =
        chunk::split(source, targetParams(), opts);

    ASSERT_FALSE(plan.segments.empty());
    ASSERT_FALSE(plan.boundaries.empty());
    EXPECT_EQ(plan.boundaries.front(), 0);
    int covered = 0;
    for (size_t i = 0; i < plan.segments.size(); ++i) {
        EXPECT_EQ(plan.segments[i].first_frame, covered);
        EXPECT_GT(plan.segments[i].frame_count, 0);
        EXPECT_FALSE(plan.segments[i].source.empty());
        covered += plan.segments[i].frame_count;
    }
    EXPECT_EQ(covered, plan.total_frames);
}

TEST(ChunkSplit, GroupingIsContiguousAndBalanced)
{
    const auto one = chunk::groupSegments(9, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], std::make_pair(0, 9));

    const auto four = chunk::groupSegments(9, 4);
    ASSERT_EQ(four.size(), 4u);
    int next = 0;
    for (const auto& [first, count] : four) {
        EXPECT_EQ(first, next);
        EXPECT_GE(count, 2);
        EXPECT_LE(count, 3);
        next += count;
    }
    EXPECT_EQ(next, 9);

    // More chunks than segments clamps to one segment per chunk.
    EXPECT_EQ(chunk::groupSegments(3, 8).size(), 3u);
}

TEST(ChunkedTranscode, StitchedBytesInvariantToChunkCount)
{
    const size_t segments =
        core::cachedSplit("cat", kClipSeconds, targetParams(), chunking(1))
            ->segments.size();
    const std::vector<farm::JobRecord> stitches = graphsByMaxChunks(2);
    for (size_t i = 0; i < stitches.size(); ++i) {
        const farm::JobRecord& stitch = stitches[i];
        const int max_chunks = kMaxChunks[i];
        const std::string what = "max_chunks " + std::to_string(max_chunks);
        ASSERT_EQ(stitch.state, farm::JobState::Done) << what;
        EXPECT_EQ(static_cast<size_t>(stitch.chunk_count),
                  std::min<size_t>(max_chunks, segments))
            << what;
        EXPECT_GT(stitch.psnr, 20.0) << what;
        EXPECT_GT(stitch.bitrate_kbps, 0.0) << what;
        EXPECT_EQ(stitch.result_fingerprint, stitches[0].result_fingerprint)
            << what << ": chunk-count grouping changed the stitched bytes";

        // The stitched bytes behind the fingerprint decode to the clip.
        const std::vector<uint8_t> stream =
            stitchedStream(chunking(1, max_chunks));
        EXPECT_EQ(chunk::streamFingerprint(stream), stitch.result_fingerprint)
            << what;
        EXPECT_EQ(codec::decode(stream).frames.size(), 9u) << what;
    }
}

TEST(ChunkedTranscode, StitchedBytesInvariantToWorkerCount)
{
    std::string serial_log;
    std::string parallel_log;
    const auto serial = graphsByMaxChunks(1, &serial_log);
    const auto parallel = graphsByMaxChunks(4, &parallel_log);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result_fingerprint,
                  parallel[i].result_fingerprint)
            << "max_chunks " << kMaxChunks[i];
    }
    EXPECT_EQ(serial_log, parallel_log)
        << "worker count changed the chunked run log";
}

TEST(ChunkedTranscode, IdrSetInvariantToChunkingAndSupersetOfPlan)
{
    const auto idr_two = chunk::iFrameDisplays(stitchedStream(chunking(3, 2)));
    const auto idr_four =
        chunk::iFrameDisplays(stitchedStream(chunking(3, 4)));
    EXPECT_EQ(idr_two, idr_four)
        << "chunk grouping changed the IDR placement";

    const auto plan =
        core::cachedSplit("cat", kClipSeconds, targetParams(), chunking(3));
    const std::set<int> idr_set(idr_two.begin(), idr_two.end());
    for (int boundary : plan->boundaries) {
        EXPECT_TRUE(idr_set.count(boundary) != 0)
            << "plan boundary " << boundary << " is not an IDR frame";
    }
}

TEST(ChunkedTranscode, DisabledMatchesWholeVideoPathByteForByte)
{
    // Chunking off: submitChunked is the plain whole-video submit, with
    // the same run log and the plain instrumented run's result.
    std::string logs[2];
    uint64_t result_fingerprint = 0;
    {
        farm::Farm farm(lightFarm(2));
        const uint64_t id = farm.submitChunked(request(), chunking(0));
        const farm::RunLog& log = farm.drain();
        const farm::JobRecord& rec = log.record(id);
        EXPECT_EQ(rec.kind, "transcode");
        EXPECT_EQ(rec.chunk_count, 0);
        result_fingerprint = rec.result_fingerprint;
        logs[0] = log.toJsonl();
    }
    {
        farm::Farm farm(lightFarm(2));
        farm.submit(request());
        logs[1] = farm.drain().toJsonl();
    }
    EXPECT_EQ(logs[0], logs[1])
        << "disabled chunking must be the plain whole-video path";

    core::RunConfig cfg;
    cfg.video = "cat";
    cfg.seconds = kClipSeconds;
    cfg.params = targetParams();
    cfg.core = uarch::baselineConfig();
    EXPECT_EQ(result_fingerprint,
              farm::fingerprint(core::runInstrumented(cfg)));
}

TEST(ChunkedTranscode, ReportsBoundaryCostAgainstUnchunked)
{
    farm::Farm farm(lightFarm(2));
    const uint64_t stitch_id = farm.submitChunked(request(), chunking(3));
    const farm::RunLog& log = farm.drain();
    const farm::JobRecord& stitch = log.record(stitch_id);
    ASSERT_EQ(stitch.state, farm::JobState::Done);
    EXPECT_GT(stitch.psnr, 20.0);

    // The deltas are stitched minus the whole-video encode of the same
    // source and parameters; closed-GOP chunk starts cost bits and
    // quality but must stay sane.
    core::RunConfig cfg;
    cfg.video = "cat";
    cfg.seconds = kClipSeconds;
    cfg.params = targetParams();
    const codec::EncodeStats whole = core::runNative(cfg);
    EXPECT_DOUBLE_EQ(stitch.delta_psnr_db, stitch.psnr - whole.psnr);
    EXPECT_DOUBLE_EQ(stitch.delta_bitrate_kbps,
                     stitch.bitrate_kbps - whole.bitrate_kbps);
    EXPECT_LT(std::abs(stitch.delta_psnr_db), 10.0);

    double chunk_seconds = 0.0;
    for (const farm::JobRecord& r : log.records()) {
        if (r.parent_id == stitch_id) {
            chunk_seconds += r.actual_seconds;
        }
    }
    EXPECT_GT(chunk_seconds, stitch.actual_seconds);
}

TEST(JobQueue, DependenciesHoldJobsUntilEveryDepIsDone)
{
    farm::JobQueue q(farm::QueuePolicy::Fifo);
    farm::Job stitch;
    stitch.id = 9;
    stitch.task = {"cat", 30, 1, "ultrafast"};
    stitch.blocked_by = {1, 2};
    q.push(stitch);
    farm::Job chunk1;
    chunk1.id = 1;
    chunk1.task = stitch.task;
    farm::Job chunk2 = chunk1;
    chunk2.id = 2;
    q.push(chunk1);
    q.push(chunk2);

    // The blocked job is invisible to pops and the matching window.
    EXPECT_EQ(q.peekWindow(10.0, 8).size(), 2u);
    EXPECT_EQ(q.tryPop(10.0)->id, 1u);
    EXPECT_EQ(q.tryPop(10.0)->id, 2u);
    EXPECT_FALSE(q.tryPop(10.0).has_value());
    EXPECT_EQ(q.size(), 1u);

    q.markDone(1);
    EXPECT_FALSE(q.tryPop(10.0).has_value());
    q.markDone(2);
    EXPECT_EQ(q.tryPop(10.0)->id, 9u);
}

TEST(JobQueue, FailedDependencyMakesBlockedJobsCollectableAsDead)
{
    farm::JobQueue q(farm::QueuePolicy::Fifo);
    farm::Job stitch;
    stitch.id = 9;
    stitch.task = {"cat", 30, 1, "ultrafast"};
    stitch.blocked_by = {1, 2};
    q.push(stitch);

    q.markDone(1);
    EXPECT_TRUE(q.takeDead().empty());
    q.markFailed(2);
    EXPECT_FALSE(q.tryPop(10.0).has_value());
    const auto dead = q.takeDead();
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0].id, 9u);
    EXPECT_TRUE(q.empty());
}

TEST(JobKey, ChunkGeometryKeepsSignaturesDistinct)
{
    farm::Job plain;
    plain.task = {"cat", 30, 1, "ultrafast"};

    farm::Job chunk0 = plain;
    chunk0.parent_id = 7;
    chunk0.chunk_index = 0;
    chunk0.chunk_first = 0;
    chunk0.chunk_frames = 3;
    chunk0.chunk_gop = 3;

    farm::Job chunk1 = chunk0;
    chunk1.chunk_index = 1;
    chunk1.chunk_first = 3;

    // Same frame span split at a different spacing is different work.
    farm::Job regrouped = chunk0;
    regrouped.chunk_gop = 6;
    regrouped.chunk_frames = 6;

    farm::Job stitch = plain;
    stitch.blocked_by = {1, 2};
    stitch.chunk_count = 2;
    stitch.chunk_gop = 3;

    const std::set<std::string> keys{plain.key(), chunk0.key(),
                                     chunk1.key(), regrouped.key(),
                                     stitch.key()};
    EXPECT_EQ(keys.size(), 5u) << "task signatures alias";
}

TEST(FarmChunked, StitchWaitsForEveryChunkAndRecordsTheGraph)
{
    farm::Farm farm(lightFarm(2));
    const uint64_t plain_id = farm.submit(request());
    chunk::ChunkOptions chunking;
    chunking.chunk_frames = 3;
    const uint64_t stitch_id = farm.submitChunked(request(), chunking);
    const farm::RunLog& log = farm.drain();

    const farm::JobRecord& stitch = log.record(stitch_id);
    EXPECT_EQ(stitch.kind, "stitch");
    EXPECT_EQ(stitch.state, farm::JobState::Done);
    EXPECT_GT(stitch.chunk_count, 1);
    EXPECT_GT(stitch.psnr, 20.0);
    EXPECT_GT(stitch.bitrate_kbps, 0.0);
    EXPECT_NE(stitch.result_fingerprint, 0u);
    EXPECT_GT(stitch.actual_seconds, 0.0);

    int chunks = 0;
    double last_chunk_finish = 0.0;
    for (const farm::JobRecord& r : log.records()) {
        if (r.parent_id != stitch_id) {
            continue;
        }
        ++chunks;
        EXPECT_EQ(r.kind, "chunk");
        EXPECT_EQ(r.state, farm::JobState::Done);
        last_chunk_finish = std::max(last_chunk_finish, r.finish);
    }
    EXPECT_EQ(chunks, stitch.chunk_count);
    EXPECT_GE(stitch.start, last_chunk_finish)
        << "stitch dispatched before its chunks completed";

    const farm::JobRecord& plain = log.record(plain_id);
    EXPECT_EQ(plain.kind, "transcode");
    EXPECT_EQ(plain.parent_id, 0u);

    // The JSONL log carries the graph fields.
    const std::string jsonl = log.toJsonl();
    EXPECT_NE(jsonl.find("\"kind\":\"stitch\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"kind\":\"chunk\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"parent_id\":" + std::to_string(stitch_id)),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"chunk_index\":"), std::string::npos);
    EXPECT_NE(jsonl.find("\"delta_psnr_db\":"), std::string::npos);
}

TEST(FarmChunked, RunLogIdenticalAcrossWorkerCounts)
{
    std::string logs[2];
    const int workers[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        farm::Farm farm(lightFarm(workers[i]));
        farm.submit(request());
        chunk::ChunkOptions chunking;
        chunking.chunk_frames = 3;
        farm.submitChunked(request(), chunking);
        logs[i] = farm.drain().toJsonl();
    }
    EXPECT_EQ(logs[0], logs[1])
        << "worker count changed the chunked run log";
}

TEST(FarmChunked, ChunkFailureFailsTheWholeGraph)
{
    farm::FarmOptions options = lightFarm(2);
    options.fault_rate = 1.0;
    farm::Farm farm(options);
    chunk::ChunkOptions chunking;
    chunking.chunk_frames = 3;
    const uint64_t stitch_id =
        farm.submitChunked(request(/*retry_budget=*/0), chunking);
    const farm::RunLog& log = farm.drain();

    const farm::JobRecord& stitch = log.record(stitch_id);
    EXPECT_EQ(stitch.state, farm::JobState::Failed);
    EXPECT_EQ(stitch.attempts, 0) << "a dead stitch job must not dispatch";
    double last_chunk_finish = 0.0;
    for (const farm::JobRecord& r : log.records()) {
        if (r.parent_id == stitch_id) {
            EXPECT_EQ(r.state, farm::JobState::Failed);
            last_chunk_finish = std::max(last_chunk_finish, r.finish);
        }
    }
    // A dead graph fails at the moment its last dependency resolved.
    EXPECT_EQ(stitch.finish, last_chunk_finish);
}

TEST(FarmChunked, RetriesRecoverTheGraphDeterministically)
{
    // Healthy reference: the stitched fingerprint the faulty farm must
    // reproduce once its retries succeed.
    uint64_t healthy_fp = 0;
    {
        farm::Farm farm(lightFarm(2));
        chunk::ChunkOptions chunking;
        chunking.chunk_frames = 3;
        const uint64_t id = farm.submitChunked(request(), chunking);
        healthy_fp = farm.drain().record(id).result_fingerprint;
    }

    farm::FarmOptions options = lightFarm(2);
    options.fault_rate = 0.3;
    options.fault_seed = 0xc0ffeeull;
    farm::Farm farm(options);
    chunk::ChunkOptions chunking;
    chunking.chunk_frames = 3;
    const uint64_t stitch_id =
        farm.submitChunked(request(/*retry_budget=*/8), chunking);
    const farm::RunLog& log = farm.drain();

    const farm::JobRecord& stitch = log.record(stitch_id);
    ASSERT_EQ(stitch.state, farm::JobState::Done)
        << "retry budget 8 at fault rate 0.3 should recover the graph";
    EXPECT_EQ(stitch.result_fingerprint, healthy_fp)
        << "retries changed the stitched bytes";
}

} // namespace
} // namespace vtrans
