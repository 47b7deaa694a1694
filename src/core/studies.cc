#include "core/studies.h"

#include <algorithm>

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
    config.binary.kernels = options.kernels;
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
    config.binary.kernels = options.kernels;
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
    config.binary.kernels = options.kernels;
    return config;
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

    // --- Training: profile collection over all study videos, on the
    // default binary -----------------------------------------------------
    layout::ProfileCollector profile;
    trace::setSink(&profile);
    for (const auto& video : videos) {
        const auto& source = mezzanine(video, options.seconds);
        trace::arena().reset();
        codec::EncoderParams params = codec::presetParams("medium");
        codec::transcode(source, params);
    }
    trace::setSink(nullptr); // Delivers the pending batch.

    // AutoFDO stand-in: the profile-guided layout. Graphite stand-in:
    // loop restructuring on the default layout.
    Binary autofdo;
    autofdo.layout = layout::applyProfileGuidedLayout(profile).layout;
    Binary graphite;
    graphite.loops = {true, true};

    auto measure = [&](const std::string& video, const Binary& binary) {
        double total = 0.0;
        int combos = 0;
        for (int crf : options.crf_values) {
            for (int refs : options.refs_values) {
                RunConfig config = sweepPointConfig(
                    {.video = video, .seconds = options.seconds}, crf, refs);
                config.binary = binary;
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

        r.baseline_seconds = measure(video, Binary{});
        r.autofdo_speedup =
            r.baseline_seconds / measure(video, autofdo) - 1.0;
        r.graphite_speedup =
            r.baseline_seconds / measure(video, graphite) - 1.0;

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
