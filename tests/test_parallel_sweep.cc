/**
 * @file
 * Tests of the parallel sweep runner (core/parallel.h): the generic
 * fan-out engine runs every point exactly once and accounts its wall
 * time; the study variants at workers > 1 produce per-point results —
 * fingerprints included — bit-identical to workers = 1 and to the serial
 * studies path, in the same order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/parallel.h"
#include "core/studies.h"
#include "farm/runlog.h"

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

    const auto serial_pool = parallelCrfRefsSweep(crf, refs, fastStudy(1));
    // The plain studies path (no pool) after warmup is the same bits too.
    const auto serial = crfRefsSweep(crf, refs, fastStudy(1));
    SweepStats stats;
    const auto parallel =
        parallelCrfRefsSweep(crf, refs, fastStudy(4), &stats);

    ASSERT_EQ(parallel.size(), crf.size() * refs.size());
    ASSERT_EQ(serial_pool.size(), parallel.size());
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(stats.jobs, 4);
    EXPECT_EQ(stats.points, parallel.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].crf, serial_pool[i].crf);
        EXPECT_EQ(parallel[i].refs, serial_pool[i].refs);
        EXPECT_EQ(parallel[i].crf, serial[i].crf);
        EXPECT_EQ(parallel[i].refs, serial[i].refs);
        const uint64_t fp = farm::fingerprint(parallel[i].run);
        EXPECT_EQ(fp, farm::fingerprint(serial_pool[i].run))
            << "point " << i << " diverges from the workers=1 pool run";
        EXPECT_EQ(fp, farm::fingerprint(serial[i].run))
            << "point " << i << " diverges from the serial studies path";
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

} // namespace
} // namespace vtrans::core
