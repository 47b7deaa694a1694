#ifndef VTRANS_CORE_PARALLEL_H_
#define VTRANS_CORE_PARALLEL_H_

/**
 * @file
 * The sweep-style studies (Figures 3-7) on the farm's worker pool. Every
 * grid point is an independent instrumented run (thread-local probe
 * sinks, simulated heaps and build choices, see trace/probe.h and
 * codec/loopflags.h), so the studies shard across threads the same way
 * the cloud-transcoding literature splits parameter-space exploration
 * across machines. `jobs == 1` runs the batch inline on the calling
 * thread: that is the serial case, not a separate implementation.
 *
 * ## Determinism
 *
 * Results are collected by grid index into a pre-sized vector, so output
 * ordering never depends on completion order. The default layout is
 * fixed by the probe-site table (trace/sites.h), and everything else
 * that shapes a run is its `RunConfig::binary`, so each point's
 * `RunResult` (and `farm::fingerprint`) is a pure function of its
 * `RunConfig` at any worker count, even in a batch mixing binaries.
 */

#include <cstddef>
#include <functional>
#include <vector>

#include "core/studies.h"

namespace vtrans::core {

/** Wall-clock accounting of one parallel sweep. */
struct SweepStats
{
    int jobs = 1;               ///< Worker threads used.
    size_t points = 0;          ///< Grid points executed.
    double wall_seconds = 0.0;  ///< Wall-clock time of the whole batch.
    double busy_seconds = 0.0;  ///< Sum of per-point wall times (the
                                ///< serial-equivalent cost).

    /** Measured wall-clock speedup over the serial-equivalent cost. */
    double speedup() const
    {
        return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 0.0;
    }
};

/** Resolves a jobs request: values < 1 mean hardware concurrency. */
int resolveJobs(int jobs);

/**
 * Executes `count` independent, index-addressed grid points on a shared
 * `farm::WorkerPool` with `jobs` workers: fans the points out (workers
 * claim them through the pool's atomic cursor) and returns once all
 * have run.
 * `run_point(i)` must write its result into slot `i` of a caller-owned,
 * pre-sized container and touch no other shared state. Returns the
 * wall-clock accounting of the batch.
 */
SweepStats parallelSweep(size_t count, int jobs,
                         const std::function<void(size_t)>& run_point);

/**
 * Figures 3/4/5: the crf x refs grid of `sweepPointConfig`s, crf major,
 * with `options.jobs` workers.
 */
std::vector<SweepPoint>
parallelCrfRefsSweep(const std::vector<int>& crf_values,
                     const std::vector<int>& refs_values,
                     const StudyOptions& options,
                     SweepStats* stats = nullptr);

/** Figure 6: every preset's `presetPointConfig`, `options.jobs` workers. */
std::vector<PresetResult> parallelPresetStudy(const StudyOptions& options,
                                              SweepStats* stats = nullptr);

/** Figure 7: the vbench `videoPointConfig`s in Table I order. */
std::vector<VideoResult> parallelVideoStudy(const StudyOptions& options,
                                            SweepStats* stats = nullptr);

} // namespace vtrans::core

#endif // VTRANS_CORE_PARALLEL_H_
