/**
 * @file
 * Tests of the characterization framework: instrumented runs are
 * deterministic, sweep grids are correct, and each study produces
 * plausible, paper-shaped outputs at test scale.
 */

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/studies.h"
#include "core/workload.h"
#include "uarch/config.h"

namespace vtrans {
namespace {

using core::RunConfig;
using core::StudyOptions;

RunConfig
smallRun(const std::string& video = "cricket")
{
    RunConfig config;
    config.video = video;
    config.seconds = 0.4;
    config.params = codec::presetParams("medium");
    config.core = uarch::baselineConfig();
    return config;
}

TEST(Workload, InstrumentedRunIsDeterministic)
{
    const auto a = core::runInstrumented(smallRun());
    const auto b = core::runInstrumented(smallRun());
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.core.instructions, b.core.instructions);
    EXPECT_EQ(a.core.l1d_misses, b.core.l1d_misses);
    EXPECT_EQ(a.core.branch_mispredicts, b.core.branch_mispredicts);
    EXPECT_EQ(a.encode.total_bits, b.encode.total_bits);
}

TEST(Workload, MezzanineIsCachedAndStable)
{
    const auto& a = core::mezzanine("cricket", 0.4);
    const auto& b = core::mezzanine("cricket", 0.4);
    EXPECT_EQ(&a, &b) << "mezzanine streams must be cached";
    EXPECT_FALSE(a.empty());
}

TEST(Workload, SimTimeScalesWithWork)
{
    auto slow = smallRun();
    slow.params = codec::presetParams("slower");
    const auto fast_run = core::runInstrumented(smallRun());
    const auto slow_run = core::runInstrumented(slow);
    EXPECT_GT(slow_run.transcode_seconds, fast_run.transcode_seconds)
        << "the slower preset must cost more simulated time";
}

TEST(Studies, GridDefinitions)
{
    EXPECT_EQ(core::fullCrfGrid().size(), 51u);
    EXPECT_EQ(core::fullRefsGrid().size(), 16u);
    EXPECT_EQ(core::fullCrfGrid().size() * core::fullRefsGrid().size(),
              816u)
        << "the paper's 816 combinations";
    EXPECT_FALSE(core::defaultCrfGrid().empty());
    EXPECT_FALSE(core::defaultRefsGrid().empty());
}

TEST(Studies, SweepShapesMatchPaper)
{
    StudyOptions options;
    options.video = "cricket";
    options.seconds = 0.4;
    const auto points =
        core::parallelCrfRefsSweep({10, 40}, {1, 8}, options);
    ASSERT_EQ(points.size(), 4u);

    auto at = [&](int crf, int refs) -> const core::SweepPoint& {
        for (const auto& p : points) {
            if (p.crf == crf && p.refs == refs) {
                return p;
            }
        }
        ADD_FAILURE() << "missing point";
        return points[0];
    };

    // Higher crf: smaller file, faster, lower quality.
    EXPECT_LT(at(40, 1).run.encode.total_bits,
              at(10, 1).run.encode.total_bits);
    EXPECT_LT(at(40, 1).run.transcode_seconds,
              at(10, 1).run.transcode_seconds);
    EXPECT_LT(at(40, 1).run.psnr, at(10, 1).run.psnr);
    // Higher refs: no bigger file, slower.
    EXPECT_LE(at(10, 8).run.encode.total_bits,
              at(10, 1).run.encode.total_bits * 101 / 100);
    EXPECT_GT(at(10, 8).run.transcode_seconds,
              at(10, 1).run.transcode_seconds);
    // Top-down: bad speculation shrinks with crf; backend grows.
    EXPECT_LT(at(40, 1).run.core.topdown().bad_speculation,
              at(10, 1).run.core.topdown().bad_speculation);
    EXPECT_GT(at(40, 1).run.core.topdown().backend(),
              at(10, 1).run.core.topdown().backend());
}

TEST(Studies, PresetLadderTimeMonotonicIsh)
{
    StudyOptions options;
    options.video = "cricket";
    options.seconds = 0.4;
    const auto results = core::parallelPresetStudy(options);
    ASSERT_EQ(results.size(), 10u);
    EXPECT_EQ(results.front().preset, "ultrafast");
    EXPECT_EQ(results.back().preset, "placebo");
    // The two ends of the ladder must be far apart in time.
    EXPECT_GT(results.back().run.transcode_seconds,
              results.front().run.transcode_seconds * 2.0);
    // Bitrate must improve (drop) substantially from ultrafast to medium.
    EXPECT_LT(results[5].run.encode.total_bits,
              results[0].run.encode.total_bits);
}

TEST(Studies, VideoStudyCoversCorpusInTableOrder)
{
    StudyOptions options;
    options.seconds = 0.2;
    const auto results = core::parallelVideoStudy(options);
    ASSERT_EQ(results.size(), 15u);
    EXPECT_EQ(results.front().video, "desktop");
    EXPECT_EQ(results.back().video, "hall");
    // Entropy is in Table I (ascending) order.
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_GE(results[i].entropy, results[i - 1].entropy);
    }
    // High-entropy content must cost more bits than low-entropy content
    // of the same resolution class (desktop vs girl, both 720p... girl is
    // 720p, desktop 720p).
    const auto& desktop = results[0];
    const auto* girl = &results[0];
    for (const auto& r : results) {
        if (r.video == "girl") {
            girl = &r;
        }
    }
    EXPECT_GT(girl->run.encode.total_bits,
              desktop.run.encode.total_bits * 2);
}

TEST(Studies, OptimizationStudyImprovesBothWays)
{
    core::OptStudyOptions options;
    // landscape (1080p class) has a frame-column working set that
    // exceeds the scaled L1d, where the deblock interchange pays off;
    // cricket (720p class) sits at the fits/thrashes boundary where the
    // restructuring is roughly neutral.
    options.videos = {"cricket", "landscape"};
    options.crf_values = {23};
    options.refs_values = {3};
    options.seconds = 0.4;
    const auto results = core::optimizationStudy(options);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& r : results) {
        EXPECT_GT(r.autofdo_speedup, 0.0)
            << r.video << ": relayout must not slow the workload down";
        EXPECT_GT(r.graphite_speedup, -0.005)
            << r.video << ": loop restructuring must not meaningfully "
                          "regress";
        EXPECT_LT(r.autofdo_speedup, 0.5) << "speedup magnitude sanity";
        EXPECT_LT(r.graphite_speedup, 0.5);
    }
    EXPECT_GT(results[1].graphite_speedup, 0.0)
        << "loop restructuring must help the 1080p-class video";
}

TEST(Studies, SchedulerStudyBeatsRandomAndRespectsConstraint)
{
    const auto result = core::schedulerStudy(0.4);
    ASSERT_EQ(result.tasks.size(), 4u);
    ASSERT_EQ(result.config_names.size(), 4u);

    // One-to-one: smart uses four distinct servers.
    std::set<int> used(result.smart.begin(), result.smart.end());
    EXPECT_EQ(used.size(), 4u);

    EXPECT_GE(result.bestSpeedup(), result.smartSpeedup() - 1e-9);
    EXPECT_GT(result.smartSpeedup(), result.randomSpeedup())
        << "characterization-driven assignment must beat random";
    // Two Table III tasks (holi, game2) share bs_op as their best server,
    // so under the one-to-one constraint at most 3 of 4 assignments can
    // match the unconstrained best; near-ties can reduce it further.
    EXPECT_GE(result.smartMatchesBest(), 1)
        << "smart should pick at least one best-fit server";
}

} // namespace
} // namespace vtrans
