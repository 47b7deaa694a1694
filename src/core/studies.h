#ifndef VTRANS_CORE_STUDIES_H_
#define VTRANS_CORE_STUDIES_H_

/**
 * @file
 * The paper's experiments as reusable studies. Each corresponds to one or
 * more tables/figures (see DESIGN.md's per-experiment index):
 *  - parallelCrfRefsSweep -> Figures 3, 4, 5   (core/parallel.h)
 *  - parallelPresetStudy  -> Figure 6 (a-d)    (core/parallel.h)
 *  - parallelVideoStudy   -> Figure 7 (a-c)    (core/parallel.h)
 *  - optimizationStudy    -> Figure 8 (AutoFDO & Graphite)
 *  - schedulerStudy       -> Figure 9 (+ Tables III & IV)
 */

#include <string>
#include <vector>

#include "core/workload.h"
#include "sched/scheduler.h"

namespace vtrans::core {

/** One grid point of the crf x refs sweep. */
struct SweepPoint
{
    int crf = 0;
    int refs = 0;
    RunResult run;
};

/** Options common to the sweep-style studies. */
struct StudyOptions
{
    std::string video = "funny"; ///< Sweep video (1080p class by default).
    double seconds = 1.0;        ///< Clip length per point.
    bool verbose = false;        ///< Progress to stderr.
    int jobs = 1;                ///< Worker threads for the parallel
                                 ///< runners (core/parallel.h); < 1 means
                                 ///< hardware concurrency.
    /// Simulated kernel cost model of every point (Binary::kernels).
    codec::KernelModel kernels = codec::KernelModel::Scalar;
};

/**
 * The `RunConfig` of one crf x refs sweep point (medium preset, baseline
 * core, default binary with `options.kernels`).
 */
RunConfig sweepPointConfig(const StudyOptions& options, int crf, int refs);

/** The `RunConfig` of one preset-study point (crf 23, refs 3). */
RunConfig presetPointConfig(const StudyOptions& options,
                            const std::string& preset);

/** The `RunConfig` of one video-study point (medium, crf 23, refs 3). */
RunConfig videoPointConfig(const StudyOptions& options,
                           const std::string& video);

/** The default subsampled grid (Delta-crf 5; refs 1,2,3,4,6,8,12,16). */
std::vector<int> defaultCrfGrid();
std::vector<int> defaultRefsGrid();
/** The paper's full 816-point grid (crf 1..51, refs 1..16). */
std::vector<int> fullCrfGrid();
std::vector<int> fullRefsGrid();

/** One preset's measurements (Figure 6). */
struct PresetResult
{
    std::string preset;
    RunResult run;
};

/** One video's measurements (Figure 7). */
struct VideoResult
{
    std::string video;
    std::string resolution_class;
    double entropy = 0.0;
    RunResult run;
};

/** Per-video outcome of the compiler-optimization study (Figure 8). */
struct OptResult
{
    std::string video;
    double autofdo_speedup = 0.0;   ///< e.g. 0.046 = 4.6%.
    double graphite_speedup = 0.0;
    double baseline_seconds = 0.0;
};

/** Options for the compiler-optimization study. */
struct OptStudyOptions
{
    std::vector<std::string> videos;      ///< Default: the vbench 15.
    std::vector<int> crf_values{17, 30};  ///< Parameter combinations
    std::vector<int> refs_values{3};      ///< averaged per video (paper
                                          ///< used 32 combos; see docs).
    double seconds = 1.0;
    bool verbose = false;
};

/**
 * Figure 8: measures the speedup of profile-guided relayout (AutoFDO
 * stand-in) and loop restructuring (Graphite stand-in) per video,
 * averaged over the parameter combinations. Training profiles are
 * collected on all study videos, as the paper does ("transcode multiple
 * videos and collect execution profiles"). Each optimized binary is a
 * `RunConfig::binary` value of its own runs; nothing process-wide
 * changes.
 */
std::vector<OptResult> optimizationStudy(const OptStudyOptions& options);

/**
 * Figure 9: simulates the Table III tasks on the Table IV configurations
 * and evaluates the random/smart/best schedulers.
 */
sched::SchedulerStudyResult schedulerStudy(double seconds = 1.0,
                                           bool verbose = false);

} // namespace vtrans::core

#endif // VTRANS_CORE_STUDIES_H_
