#include "core/parallel.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "codec/params.h"
#include "common/status.h"
#include "farm/server.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "video/vbench.h"

namespace vtrans::core {

namespace {

/**
 * Serialized progress logging: worker threads report grid points as they
 * claim them, one VT_INFORM at a time (stderr writes from concurrent
 * workers would otherwise interleave mid-line).
 */
void
progress(bool verbose, const std::string& message)
{
    if (!verbose) {
        return;
    }
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    VT_INFORM(message);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - start)
        .count();
}

} // namespace

int
resolveJobs(int jobs)
{
    if (jobs >= 1) {
        return jobs;
    }
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return hw >= 1 ? hw : 1;
}

SweepStats
parallelSweep(size_t count, int jobs,
              const std::function<void(size_t)>& run_point)
{
    // Wall-time stage spans land in the process-wide tracer when one is
    // installed (Scoped is a no-op otherwise).
    obs::SpanTracer* tracer = obs::globalTracer();

    SweepStats stats;
    stats.jobs = resolveJobs(jobs);
    stats.points = count;
    if (count == 0) {
        return stats;
    }

    // Per-point wall times land in distinct slots: no cross-worker
    // sharing, summed only after the pool joins the batch.
    std::vector<double> point_seconds(count, 0.0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        tasks.push_back([&run_point, &point_seconds, tracer, i] {
            obs::SpanTracer::Scoped span(tracer, "sweep", "point");
            span.arg("index", std::to_string(i));
            const auto start = std::chrono::steady_clock::now();
            run_point(i);
            point_seconds[i] = secondsSince(start);
        });
    }

    const auto batch_start = std::chrono::steady_clock::now();
    {
        obs::SpanTracer::Scoped fanout(tracer, "sweep", "fan-out");
        fanout.arg("points", std::to_string(count));
        fanout.arg("jobs", std::to_string(stats.jobs));
        farm::WorkerPool pool(stats.jobs);
        pool.run(std::move(tasks));
    }
    stats.wall_seconds = secondsSince(batch_start);
    {
        obs::SpanTracer::Scoped collect(tracer, "sweep", "collect");
        for (double s : point_seconds) {
            stats.busy_seconds += s;
        }
    }

    auto& reg = obs::metrics();
    reg.counter("sweep_points_total", "Grid points run by parallel sweeps")
        .inc(count);
    reg.counter("sweep_batches_total", "Parallel sweep invocations").inc();
    auto& point_hist = reg.histogram(
        "sweep_point_wall_seconds", "Wall-clock duration of sweep points");
    for (double s : point_seconds) {
        point_hist.observe(s);
    }
    reg.gauge("sweep_last_speedup",
              "busy/wall ratio of the most recent parallel sweep")
        .set(stats.wall_seconds > 0.0
                 ? stats.busy_seconds / stats.wall_seconds
                 : 0.0);
    return stats;
}

std::vector<SweepPoint>
parallelCrfRefsSweep(const std::vector<int>& crf_values,
                     const std::vector<int>& refs_values,
                     const StudyOptions& options, SweepStats* stats)
{
    // Grid order is fixed up front; workers only fill in `run`.
    std::vector<SweepPoint> points;
    points.reserve(crf_values.size() * refs_values.size());
    for (int crf : crf_values) {
        for (int refs : refs_values) {
            SweepPoint point;
            point.crf = crf;
            point.refs = refs;
            points.push_back(point);
        }
    }

    const SweepStats s = parallelSweep(
        points.size(), options.jobs, [&](size_t i) {
            SweepPoint& point = points[i];
            progress(options.verbose,
                     "sweep crf=" + std::to_string(point.crf)
                         + " refs=" + std::to_string(point.refs));
            point.run = runInstrumented(
                sweepPointConfig(options, point.crf, point.refs));
        });
    if (stats != nullptr) {
        *stats = s;
    }
    return points;
}

std::vector<PresetResult>
parallelPresetStudy(const StudyOptions& options, SweepStats* stats)
{
    std::vector<PresetResult> results;
    for (const auto& preset : codec::presetNames()) {
        PresetResult result;
        result.preset = preset;
        results.push_back(std::move(result));
    }

    const SweepStats s = parallelSweep(
        results.size(), options.jobs, [&](size_t i) {
            PresetResult& result = results[i];
            progress(options.verbose, "preset " + result.preset);
            result.run = runInstrumented(
                presetPointConfig(options, result.preset));
        });
    if (stats != nullptr) {
        *stats = s;
    }
    return results;
}

std::vector<VideoResult>
parallelVideoStudy(const StudyOptions& options, SweepStats* stats)
{
    std::vector<VideoResult> results;
    for (const auto& spec : video::vbenchCorpus()) {
        VideoResult result;
        result.video = spec.name;
        result.resolution_class = spec.resolution_class;
        result.entropy = spec.entropy;
        results.push_back(std::move(result));
    }

    const SweepStats s = parallelSweep(
        results.size(), options.jobs, [&](size_t i) {
            VideoResult& result = results[i];
            progress(options.verbose, "video " + result.video);
            result.run = runInstrumented(
                videoPointConfig(options, result.video));
        });
    if (stats != nullptr) {
        *stats = s;
    }
    return results;
}

} // namespace vtrans::core
