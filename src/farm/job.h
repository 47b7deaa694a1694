#ifndef VTRANS_FARM_JOB_H_
#define VTRANS_FARM_JOB_H_

/**
 * @file
 * The unit of work of the transcoding-farm service layer: a `Job` wraps a
 * `sched::Task` (what to transcode) with the service-level attributes a
 * streaming provider attaches to it — submit time, an optional delivery
 * deadline, a priority class, and a retry budget for transient failures.
 *
 * All farm timestamps are in *simulated* seconds: the same clock the core
 * model's `transcode_seconds` uses, so queue waits, deadlines and service
 * times are directly comparable to the per-run measurements.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/scheduler.h"

namespace vtrans::farm {

/** Lifecycle state of a job, as reported by the run log. */
enum class JobState : uint8_t {
    Pending, ///< Submitted, not yet dispatched.
    Done,    ///< Completed successfully.
    Failed,  ///< Exhausted its retry budget.
    Shed,    ///< Rejected by admission control (queue over capacity).
};

/** Human-readable name of a job state ("done", "failed", ...). */
std::string toString(JobState state);

/** A transcode request submitted to the farm. */
struct Job
{
    uint64_t id = 0;          ///< Assigned by the farm at submit time.
    sched::Task task;         ///< What to transcode (video/crf/refs/preset).
    double submit_time = 0.0; ///< Arrival, simulated seconds since start.
    double deadline = 0.0;    ///< Absolute simulated deadline; 0 = none.
    int priority = 0;         ///< Higher runs sooner under Priority policy.
    int retry_budget = 0;     ///< Re-dispatches allowed after a failure.

    // Job-graph edges (chunked transcodes; empty/zero for plain jobs).
    uint64_t parent_id = 0;   ///< Stitch job this chunk feeds; 0 = none.
    int chunk_index = -1;     ///< Position among sibling chunks; -1 = none.
    int chunk_first = 0;      ///< First source frame covered by the chunk.
    int chunk_frames = 0;     ///< Source frames covered by the chunk.
    int chunk_gop = 0;        ///< Boundary spacing the graph was split at.
    int chunk_count = 0;      ///< On a stitch job: number of chunk deps.
    std::vector<uint64_t> blocked_by; ///< Must be Done before dispatch.

    /** >0: known deterministic service time (stitch jobs), bypassing the
     *  characterization-driven predictor. */
    double fixed_seconds = 0.0;

    // Scheduling bookkeeping (maintained by the farm, not the submitter).
    double ready_time = 0.0;  ///< Eligible for dispatch (submit or retry).
    int attempts = 0;         ///< Dispatches so far.

    /** True for a chunk of a split transcode (has a stitch parent). */
    bool isChunk() const { return parent_id != 0; }
    /** True for a stitch job (waits on chunk dependencies). */
    bool isStitch() const { return !blocked_by.empty(); }

    /**
     * Unique task signature: same key -> identical transcode work. Chunk
     * jobs fold their graph geometry (index, frame span, boundary
     * spacing) into the key, so two chunks of the same task — or the
     * same span split at different spacings — never alias in the result
     * cache or the characterization profiles.
     */
    std::string key() const;
};

/**
 * Deterministic fault injection: fails a configurable fraction of run
 * attempts so retry/backoff and graceful-degradation paths can be
 * exercised reproducibly. The verdict for a given (job, attempt) pair is
 * a pure function of the seed — independent of dispatch order, worker
 * count, and wall-clock — so a faulty farm is exactly as deterministic
 * as a healthy one.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(double rate = 0.0, uint64_t seed = 0x5eedull)
        : rate_(rate), seed_(seed)
    {
    }

    /** True if attempt number `attempt` (0-based) of `job_id` fails. */
    bool
    fails(uint64_t job_id, int attempt) const
    {
        if (rate_ <= 0.0) {
            return false;
        }
        // Derive an independent stream per (job, attempt) so the verdict
        // does not depend on evaluation order.
        Rng rng(seed_ ^ (job_id * 0x9e3779b97f4a7c15ull)
                ^ (static_cast<uint64_t>(attempt) * 0xbf58476d1ce4e5b9ull));
        return rng.chance(rate_);
    }

    /** The configured failure probability per attempt. */
    double rate() const { return rate_; }

  private:
    double rate_;
    uint64_t seed_;
};

} // namespace vtrans::farm

#endif // VTRANS_FARM_JOB_H_
