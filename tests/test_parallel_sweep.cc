/**
 * @file
 * Tests of the parallel sweep runner (core/parallel.h): the generic
 * fan-out engine runs every point exactly once and accounts its wall
 * time; the study variants at workers > 1 produce per-point results —
 * fingerprints included — bit-identical to workers = 1, in the same
 * order, under either kernel model; and one batch may mix binaries.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "codec/strategies/strategies.h"
#include "codec/transcode.h"
#include "core/parallel.h"
#include "core/studies.h"
#include "farm/runlog.h"
#include "layout/profile.h"
#include "layout/relayout.h"
#include "uarch/config.h"

namespace vtrans::core {
namespace {

/** Cheap 480p-class grid so the determinism gate stays fast. */
StudyOptions
fastStudy(int jobs)
{
    StudyOptions options;
    options.video = "cat";
    options.seconds = 0.1;
    options.jobs = jobs;
    options.verbose = false;
    return options;
}

TEST(ParallelSweep, RunsEveryPointExactlyOnce)
{
    constexpr size_t kPoints = 33;
    std::vector<std::atomic<int>> visits(kPoints);
    const SweepStats stats =
        parallelSweep(kPoints, 4, [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < kPoints; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "point " << i;
    }
    EXPECT_EQ(stats.points, kPoints);
    EXPECT_EQ(stats.jobs, 4);
    EXPECT_GE(stats.wall_seconds, 0.0);
    EXPECT_GE(stats.busy_seconds, 0.0);
}

TEST(ParallelSweep, EmptyGridIsANoOp)
{
    const SweepStats stats =
        parallelSweep(0, 4, [](size_t) { FAIL() << "ran a point"; });
    EXPECT_EQ(stats.points, 0u);
    EXPECT_DOUBLE_EQ(stats.speedup(), 0.0);
}

TEST(ParallelSweep, ResolveJobsHonorsExplicitAndHardwareCounts)
{
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
    EXPECT_GE(resolveJobs(0), 1);  // Hardware concurrency.
    EXPECT_GE(resolveJobs(-3), 1);
}

TEST(ParallelSweep, CrfRefsSweepMatchesSerialAtAnyWorkerCount)
{
    const std::vector<int> crf{20, 40};
    const std::vector<int> refs{1, 3};

    const auto serial = parallelCrfRefsSweep(crf, refs, fastStudy(1));
    SweepStats stats;
    const auto parallel =
        parallelCrfRefsSweep(crf, refs, fastStudy(4), &stats);

    ASSERT_EQ(parallel.size(), crf.size() * refs.size());
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(stats.jobs, 4);
    EXPECT_EQ(stats.points, parallel.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].crf, serial[i].crf);
        EXPECT_EQ(parallel[i].refs, serial[i].refs);
        EXPECT_EQ(farm::fingerprint(parallel[i].run),
                  farm::fingerprint(serial[i].run))
            << "point " << i << " diverges from the workers=1 run";
    }
}

TEST(ParallelSweep, VectorModelIdenticalAtOneAndFourJobs)
{
    const std::vector<int> crf{20, 40};
    const std::vector<int> refs{1, 3};
    const auto scalar = parallelCrfRefsSweep(crf, refs, fastStudy(1));

    // After a scalar run, the vector model's sites first execute on
    // whichever worker reaches them; their addresses must not depend on
    // that. Four workers go first so they race.
    StudyOptions vector4 = fastStudy(4);
    vector4.kernels = codec::KernelModel::Vector;
    StudyOptions vector1 = fastStudy(1);
    vector1.kernels = codec::KernelModel::Vector;
    const auto four = parallelCrfRefsSweep(crf, refs, vector4);
    const auto one = parallelCrfRefsSweep(crf, refs, vector1);

    ASSERT_EQ(four.size(), crf.size() * refs.size());
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < four.size(); ++i) {
        const uint64_t fp = farm::fingerprint(four[i].run);
        EXPECT_EQ(fp, farm::fingerprint(one[i].run))
            << "point " << i << " differs between 4 and 1 jobs";
        EXPECT_NE(fp, farm::fingerprint(scalar[i].run))
            << "point " << i << " ran the scalar model";
    }
}

TEST(ParallelSweep, PresetStudyMatchesSerialAtAnyWorkerCount)
{
    StudyOptions options = fastStudy(1);
    options.seconds = 0.06; // The slow presets dominate; keep clips tiny.

    const auto serial = parallelPresetStudy(options);
    options.jobs = 3;
    const auto parallel = parallelPresetStudy(options);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].preset, serial[i].preset);
        EXPECT_EQ(farm::fingerprint(parallel[i].run),
                  farm::fingerprint(serial[i].run))
            << "preset " << parallel[i].preset;
    }
}

/** Every registered site's default address, in id order. */
std::vector<uint64_t>
registryAddresses()
{
    std::vector<uint64_t> out;
    for (const trace::CodeSite* site : trace::registry().sites()) {
        out.push_back(site->address);
    }
    return out;
}

TEST(ParallelSweep, BinaryIsAValue)
{
    // One batch mixes four binaries. Each run's binary travels in its
    // RunConfig, so the batch is bit-identical at 1 and 4 workers however
    // the runs interleave, and a default run never sees another run's
    // layout, loop schedule or kernel model.
    const auto addresses = registryAddresses();

    layout::ProfileCollector profile;
    trace::setSink(&profile);
    codec::transcode(mezzanine("cat", 0.1), codec::presetParams("medium"));
    trace::setSink(nullptr);
    Binary relaid;
    relaid.layout = layout::applyProfileGuidedLayout(profile).layout;
    Binary restructured;
    restructured.loops = {true, true};
    Binary vector;
    vector.kernels = codec::KernelModel::Vector;

    std::vector<RunConfig> configs;
    for (const Binary& binary :
         {Binary{}, relaid, Binary{}, restructured, vector, Binary{}}) {
        RunConfig config;
        config.video = "cat";
        config.seconds = 0.1;
        config.params = codec::presetParams("medium");
        config.core = uarch::baselineConfig();
        config.binary = binary;
        configs.push_back(config);
    }
    auto runAll = [&](int jobs) {
        std::vector<RunResult> results(configs.size());
        parallelSweep(configs.size(), jobs, [&](size_t i) {
            results[i] = runInstrumented(configs[i]);
        });
        return results;
    };
    const auto four = runAll(4);
    const auto one = runAll(1);
    const RunResult lone = runInstrumented(configs.front());

    ASSERT_EQ(four.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        // The fingerprint folds in every CoreStats counter.
        const std::string what = "run " + std::to_string(i);
        EXPECT_EQ(farm::fingerprint(four[i]), farm::fingerprint(one[i]))
            << what;
        EXPECT_EQ(four[i].core.cycles, one[i].core.cycles) << what;
        if (configs[i].binary.layout == nullptr
            && configs[i].binary.kernels == codec::KernelModel::Scalar
            && !configs[i].binary.loops.interchange_deblock) {
            EXPECT_EQ(farm::fingerprint(four[i]), farm::fingerprint(lone))
                << what << " is a default run";
            EXPECT_EQ(four[i].core.cycles, lone.core.cycles) << what;
        } else {
            EXPECT_NE(four[i].core.cycles, lone.core.cycles)
                << what << " must simulate its own binary";
        }
    }
    EXPECT_EQ(registryAddresses(), addresses)
        << "no run may move a registry site";
}

} // namespace
} // namespace vtrans::core
