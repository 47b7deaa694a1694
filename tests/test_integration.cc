/**
 * @file
 * Cross-module integration tests: the full instrumented pipeline
 * (synthetic video -> mezzanine -> transcode -> simulator) produces
 * consistent, paper-shaped behaviour across parameters, videos, layouts
 * and core configurations.
 */

#include <gtest/gtest.h>

#include "codec/decoder.h"
#include "codec/loopflags.h"
#include "codec/transcode.h"
#include "core/studies.h"
#include "core/workload.h"
#include "layout/profile.h"
#include "layout/relayout.h"
#include "trace/probe.h"
#include "uarch/config.h"
#include "video/generate.h"
#include "video/quality.h"
#include "video/vbench.h"

namespace vtrans {
namespace {

TEST(Integration, TranscodePreservesContentAcrossGenerations)
{
    // source -> mezzanine -> transcode -> decode: the final frames must
    // still resemble the original synthetic content.
    video::VideoSpec spec = video::findVideo("bike");
    spec.seconds = 0.4;
    const auto original = video::generateVideo(spec);
    const auto source = codec::makeSourceStream(spec);

    codec::EncoderParams params = codec::presetParams("medium");
    params.crf = 20;
    const auto result = codec::transcode(source, params);
    const auto final_frames = codec::decode(result.output);

    ASSERT_EQ(final_frames.frames.size(), original.size());
    const double psnr =
        video::sequencePsnr(original, final_frames.frames);
    EXPECT_GT(psnr, 30.0) << "two lossy generations at crf 10/20";
}

TEST(Integration, LoopOptFlagsDoNotChangeOutput)
{
    // Graphite-style restructuring must be semantically invisible: same
    // bitstream, same PSNR — only the access order changes.
    const auto& source = core::mezzanine("cricket", 0.4);
    codec::EncoderParams params = codec::presetParams("medium");

    const auto plain = codec::transcode(source, params);
    const codec::BuildScope restructuring({true, true},
                                          codec::KernelModel::Scalar);
    const auto restructured = codec::transcode(source, params);

    EXPECT_EQ(plain.output, restructured.output)
        << "loop restructuring changed the encoded bits";
}

TEST(Integration, RelayoutDoesNotChangeOutput)
{
    core::RunConfig config;
    config.video = "cricket";
    config.seconds = 0.4;
    config.params = codec::presetParams("medium");
    config.core = uarch::baselineConfig();
    config.keep_output = true;
    const auto before = core::runInstrumented(config);

    // A degenerate profile still yields a valid layout.
    layout::ProfileCollector profile;
    trace::setSink(&profile);
    codec::transcode(core::mezzanine(config.video, config.seconds),
                     config.params);
    trace::setSink(nullptr);
    config.binary.layout = layout::applyProfileGuidedLayout(profile).layout;
    const auto after = core::runInstrumented(config);

    EXPECT_EQ(before.output, after.output)
        << "code layout must never affect program semantics";
    EXPECT_NE(before.core.l1i_misses, after.core.l1i_misses)
        << "the relaid-out binary must reach the core model";
}

TEST(Integration, TableIVConfigsAllSpeedUpTheirTarget)
{
    // Each optimized configuration must not be slower than baseline on a
    // real transcoding workload (they only add resources / better
    // predictors).
    core::RunConfig config;
    config.video = "cricket";
    config.seconds = 0.4;
    config.params = codec::presetParams("medium");

    config.core = uarch::baselineConfig();
    const double base = core::runInstrumented(config).transcode_seconds;

    for (const auto& params : uarch::optimizedConfigs()) {
        config.core = params;
        const double t = core::runInstrumented(config).transcode_seconds;
        EXPECT_LE(t, base * 1.001) << params.name;
    }
}

TEST(Integration, EntropyOrdersBitrateWithinResolutionClass)
{
    // Fig 7 precondition: within the 720p class, higher-entropy videos
    // need more bits at the same quality target.
    std::vector<std::pair<double, uint64_t>> measured;
    for (const char* name : {"desktop", "bike", "cricket", "girl"}) {
        core::RunConfig config;
        config.video = name;
        config.seconds = 0.4;
        config.params = codec::presetParams("medium");
        config.core = uarch::baselineConfig();
        const auto run = core::runInstrumented(config);
        measured.emplace_back(video::findVideo(name).entropy,
                              run.encode.total_bits);
    }
    for (size_t i = 1; i < measured.size(); ++i) {
        EXPECT_GT(measured[i].second, measured[i - 1].second)
            << "entropy " << measured[i].first << " vs "
            << measured[i - 1].first;
    }
}

TEST(Integration, BsOpReducesMispredictPain)
{
    // TAGE must reduce mispredicts on a branchy low-crf workload.
    core::RunConfig config;
    config.video = "cricket";
    config.seconds = 0.4;
    config.params = codec::presetParams("medium");
    config.params.crf = 10;

    config.core = uarch::baselineConfig();
    const auto base = core::runInstrumented(config);
    config.core = uarch::bsOpConfig();
    const auto tage = core::runInstrumented(config);

    EXPECT_LT(tage.core.branch_mispredicts, base.core.branch_mispredicts);
    EXPECT_LT(tage.core.topdown().bad_speculation,
              base.core.topdown().bad_speculation);
}

TEST(Integration, BeOp1ReducesDataMisses)
{
    core::RunConfig config;
    config.video = "chicken"; // largest working set
    config.seconds = 0.3;
    config.params = codec::presetParams("medium");
    config.params.refs = 8;

    config.core = uarch::baselineConfig();
    const auto base = core::runInstrumented(config);
    config.core = uarch::beOp1Config();
    const auto big = core::runInstrumented(config);

    EXPECT_LT(big.core.l1d_misses, base.core.l1d_misses);
    EXPECT_LT(big.core.topdown().backend_memory,
              base.core.topdown().backend_memory + 1e-9);
}

TEST(Integration, FeOpReducesInstructionMisses)
{
    core::RunConfig config;
    config.video = "cricket";
    config.seconds = 0.4;
    config.params = codec::presetParams("medium");

    config.core = uarch::baselineConfig();
    const auto base = core::runInstrumented(config);
    config.core = uarch::feOpConfig();
    const auto fe = core::runInstrumented(config);

    EXPECT_LT(fe.core.l1i_misses, base.core.l1i_misses);
    EXPECT_LE(fe.core.topdown().frontend,
              base.core.topdown().frontend + 1e-9);
}

} // namespace
} // namespace vtrans
