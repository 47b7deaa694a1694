#include "core/studies.h"

#include <algorithm>

#include "codec/loopflags.h"
#include "codec/transcode.h"
#include "common/status.h"
#include "layout/profile.h"
#include "layout/relayout.h"
#include "trace/probe.h"
#include "uarch/config.h"
#include "video/vbench.h"

namespace vtrans::core {

namespace {

void
progress(bool verbose, const std::string& message)
{
    if (verbose) {
        VT_INFORM(message);
    }
}

} // namespace

std::vector<int>
defaultCrfGrid()
{
    std::vector<int> crf;
    for (int v = 1; v <= 51; v += 5) {
        crf.push_back(v);
    }
    return crf;
}

std::vector<int>
defaultRefsGrid()
{
    return {1, 2, 3, 4, 6, 8, 12, 16};
}

std::vector<int>
fullCrfGrid()
{
    std::vector<int> crf;
    for (int v = 1; v <= 51; ++v) {
        crf.push_back(v);
    }
    return crf;
}

std::vector<int>
fullRefsGrid()
{
    std::vector<int> refs;
    for (int v = 1; v <= 16; ++v) {
        refs.push_back(v);
    }
    return refs;
}

RunConfig
sweepPointConfig(const StudyOptions& options, int crf, int refs)
{
    RunConfig config;
    config.video = options.video;
    config.seconds = options.seconds;
    config.params = codec::presetParams("medium");
    config.params.crf = crf;
    config.params.refs = refs;
    config.core = uarch::baselineConfig();
    return config;
}

RunConfig
presetPointConfig(const StudyOptions& options, const std::string& preset)
{
    RunConfig config;
    config.video = options.video;
    config.seconds = options.seconds;
    // §III-C2: presets with the default crf (23) and refs (3).
    config.params = codec::presetParams(preset);
    config.core = uarch::baselineConfig();
    return config;
}

RunConfig
videoPointConfig(const StudyOptions& options, const std::string& video)
{
    RunConfig config;
    config.video = video;
    config.seconds = options.seconds;
    config.params = codec::presetParams("medium"); // crf 23, refs 3
    config.core = uarch::baselineConfig();
    return config;
}

std::vector<SweepPoint>
crfRefsSweep(const std::vector<int>& crf_values,
             const std::vector<int>& refs_values,
             const StudyOptions& options)
{
    std::vector<SweepPoint> points;
    points.reserve(crf_values.size() * refs_values.size());
    for (int crf : crf_values) {
        for (int refs : refs_values) {
            progress(options.verbose,
                     "sweep crf=" + std::to_string(crf)
                         + " refs=" + std::to_string(refs));
            SweepPoint point;
            point.crf = crf;
            point.refs = refs;
            point.run = runInstrumented(sweepPointConfig(options, crf, refs));
            points.push_back(std::move(point));
        }
    }
    return points;
}

std::vector<PresetResult>
presetStudy(const StudyOptions& options)
{
    std::vector<PresetResult> results;
    for (const auto& preset : codec::presetNames()) {
        progress(options.verbose, "preset " + preset);
        PresetResult result;
        result.preset = preset;
        result.run = runInstrumented(presetPointConfig(options, preset));
        results.push_back(std::move(result));
    }
    return results;
}

std::vector<VideoResult>
videoStudy(const StudyOptions& options)
{
    std::vector<VideoResult> results;
    for (const auto& spec : video::vbenchCorpus()) {
        progress(options.verbose, "video " + spec.name);
        VideoResult result;
        result.video = spec.name;
        result.resolution_class = spec.resolution_class;
        result.entropy = spec.entropy;
        result.run = runInstrumented(videoPointConfig(options, spec.name));
        results.push_back(std::move(result));
    }
    return results;
}

std::vector<OptResult>
optimizationStudy(const OptStudyOptions& options)
{
    std::vector<std::string> videos = options.videos;
    if (videos.empty()) {
        for (const auto& spec : video::vbenchCorpus()) {
            videos.push_back(spec.name);
        }
    }

    // Make sure every code site is registered and the layout is pristine
    // before profiling (one warm-up run touches all kernels).
    trace::registry().resetLayout();
    codec::setLoopOptFlags({});

    // --- Training: profile collection over all study videos -----------
    layout::ProfileCollector profile;
    trace::setSink(&profile);
    for (const auto& video : videos) {
        const auto& source = mezzanine(video, options.seconds);
        trace::arena().reset();
        codec::EncoderParams params = codec::presetParams("medium");
        codec::transcode(source, params);
    }
    trace::setSink(nullptr); // Delivers the pending batch.

    auto measure = [&](const std::string& video) {
        double total = 0.0;
        int combos = 0;
        for (int crf : options.crf_values) {
            for (int refs : options.refs_values) {
                RunConfig config;
                config.video = video;
                config.seconds = options.seconds;
                config.params = codec::presetParams("medium");
                config.params.crf = crf;
                config.params.refs = refs;
                config.core = uarch::baselineConfig();
                total += runInstrumented(config).transcode_seconds;
                ++combos;
            }
        }
        return total / combos;
    };

    std::vector<OptResult> results;
    for (const auto& video : videos) {
        progress(options.verbose, "optimization study: " + video);
        OptResult r;
        r.video = video;

        // Baseline: default layout, no loop restructuring.
        trace::registry().resetLayout();
        codec::setLoopOptFlags({});
        r.baseline_seconds = measure(video);

        // AutoFDO stand-in: profile-guided relayout.
        layout::applyProfileGuidedLayout(profile);
        const double fdo_seconds = measure(video);
        trace::registry().resetLayout();
        r.autofdo_speedup = r.baseline_seconds / fdo_seconds - 1.0;

        // Graphite stand-in: loop restructuring, default layout.
        codec::setLoopOptFlags({true, true});
        const double graphite_seconds = measure(video);
        codec::setLoopOptFlags({});
        r.graphite_speedup = r.baseline_seconds / graphite_seconds - 1.0;

        results.push_back(std::move(r));
    }
    return results;
}

sched::SchedulerStudyResult
schedulerStudy(double seconds, bool verbose)
{
    const auto tasks = sched::tableIIITasks();
    const auto pool = uarch::optimizedConfigs();

    std::vector<std::string> config_names;
    for (const auto& p : pool) {
        config_names.push_back(p.name);
    }

    std::vector<double> baseline_seconds;
    std::vector<std::vector<double>> times(tasks.size());
    std::vector<uarch::TopDown> profiles;

    // Every task, and the calibration reference, is one pass simulated
    // on the baseline and the whole pool at once.
    std::vector<uarch::CoreParams> classes{uarch::baselineConfig()};
    classes.insert(classes.end(), pool.begin(), pool.end());
    auto runAll = [&](RunConfig config, const std::string& what) {
        progress(verbose, "scheduler study: " + what + " on baseline + "
                              + std::to_string(pool.size()) + " configs");
        std::vector<RunResult> runs = runInstrumented(config, classes);
        std::vector<double> seconds;
        for (size_t c = 1; c < runs.size(); ++c) {
            seconds.push_back(runs[c].transcode_seconds);
        }
        return std::make_pair(std::move(runs.front()), std::move(seconds));
    };

    for (size_t t = 0; t < tasks.size(); ++t) {
        RunConfig config;
        config.video = tasks[t].video;
        config.seconds = seconds;
        config.params = tasks[t].params();
        auto [base, on_pool] =
            runAll(config, "task " + std::to_string(t + 1) + " ("
                               + tasks[t].video + ")");
        baseline_seconds.push_back(base.transcode_seconds);
        profiles.push_back(base.core.topdown());
        times[t] = std::move(on_pool);
    }

    // Calibrate per-config relief effectiveness on a reference workload
    // (Big Buck Bunny) that is not one of the scheduled tasks.
    RunConfig cal;
    cal.video = "bbb";
    cal.seconds = seconds;
    cal.params = codec::presetParams("medium");
    const auto [cal_base, cal_seconds] = runAll(cal, "calibrating on bbb");
    const auto relief = sched::calibrateRelief(
        cal_base.core.topdown(), cal_base.transcode_seconds, config_names,
        cal_seconds);

    return sched::evaluateSchedulers(tasks, config_names, baseline_seconds,
                                     times, profiles, relief);
}

} // namespace vtrans::core
