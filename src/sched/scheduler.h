#ifndef VTRANS_SCHED_SCHEDULER_H_
#define VTRANS_SCHED_SCHEDULER_H_

/**
 * @file
 * The transcoding-task scheduler study (paper §III-D2, Table III, Fig 9):
 * assigning transcoding tasks to servers with different microarchitecture
 * configurations. Three policies are compared —
 *  - random: any server; expected time is the mean over the pool;
 *  - smart: characterization-driven best-fit under a one-to-one
 *    constraint (each task to a different server), solved optimally over
 *    the profile-predicted fit scores;
 *  - best: per-task best server with no constraint (the oracle-ish bound).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "codec/params.h"
#include "uarch/core.h"

namespace vtrans::sched {

/** One transcoding task (a Table III row). */
struct Task
{
    std::string video;   ///< vbench short name.
    int crf = 23;
    int refs = 3;
    std::string preset = "medium";

    /** Expands into the encoder parameter set. */
    codec::EncoderParams params() const;
};

/** The four tasks of Table III. */
std::vector<Task> tableIIITasks();

/** A task -> server assignment (index into the server/config list). */
using Assignment = std::vector<int>;

/**
 * Solves max-sum one-to-one assignment exactly with the O(n^3)
 * Hungarian (Kuhn-Munkres) algorithm; rectangular problems (tasks <=
 * servers) are padded square.
 * @param scores scores[task][server]; tasks <= servers.
 */
Assignment solveAssignment(const std::vector<std::vector<double>>& scores);

/**
 * Predicts how well a microarchitecture variant fits a task from the
 * task's baseline Top-down profile: each Table IV variant relieves one
 * stall category, so the predicted benefit is the weight of the category
 * it attacks, scaled by the variant's relief effectiveness.
 * @param relief How much of its target category the variant removes
 *        (1.0 = all of it); calibrated from a reference workload.
 */
double fitScore(const uarch::TopDown& baseline_profile,
                const std::string& config_name, double relief = 1.0);

/**
 * Calibrates per-config relief coefficients from one reference workload:
 * relief = (measured speedup fraction) / (target category weight). This
 * is the "profiling results used as a reference" of paper §III-D2.
 * @param baseline_profile Top-down profile of the reference on baseline.
 * @param baseline_seconds Reference runtime on the baseline config.
 * @param config_seconds Reference runtimes per config (pool order).
 */
std::vector<double> calibrateRelief(
    const uarch::TopDown& baseline_profile, double baseline_seconds,
    const std::vector<std::string>& config_names,
    const std::vector<double>& config_seconds);

/** Outcome of the scheduler comparison. */
struct SchedulerStudyResult
{
    std::vector<Task> tasks;
    std::vector<std::string> config_names;      ///< Server pool (size 4).
    std::vector<double> baseline_seconds;       ///< Per task.
    std::vector<std::vector<double>> seconds;   ///< [task][server].
    Assignment smart;                            ///< One-to-one.
    Assignment best;                             ///< Unconstrained.

    /** Mean per-task speedup of the random policy over baseline. */
    double randomSpeedup() const;
    /** Mean per-task speedup of the smart policy. */
    double smartSpeedup() const;
    /** Mean per-task speedup of the best policy. */
    double bestSpeedup() const;
    /** Tasks where smart picked the same server as best. */
    int smartMatchesBest() const;
};

/**
 * Evaluates the three schedulers given measured times and baseline
 * profiles (the simulation itself is driven by core::schedulerStudy).
 */
SchedulerStudyResult evaluateSchedulers(
    const std::vector<Task>& tasks,
    const std::vector<std::string>& config_names,
    const std::vector<double>& baseline_seconds,
    const std::vector<std::vector<double>>& seconds,
    const std::vector<uarch::TopDown>& baseline_profiles,
    const std::vector<double>& relief = {});

} // namespace vtrans::sched

#endif // VTRANS_SCHED_SCHEDULER_H_
