#ifndef VTRANS_FARM_QUEUE_H_
#define VTRANS_FARM_QUEUE_H_

/**
 * @file
 * The farm planner's ordered job backlog, with pluggable ordering
 * policies:
 *  - Fifo: by ready time (arrival order; retries re-enter when ready);
 *  - Priority: higher priority first, FIFO within a class;
 *  - Edf: earliest absolute deadline first (deadline-less jobs last).
 *
 * The queue is a plain single-threaded container: it lives inside one
 * `Farm::plan()` call and is only ever touched by the discrete-event
 * planner, which pops jobs whose ready time has arrived in simulated
 * time (`tryPop(now)`, `peekWindow`). It has no capacity of its own —
 * admission control is the planner's arrival step.
 *
 * ## Job graphs
 *
 * A job whose `blocked_by` list is non-empty is held until every listed
 * dependency has been reported Done via `markDone` — it is invisible to
 * every pop/peek call until then (a stitch job can never dispatch before
 * its chunks). If any dependency is reported Failed via `markFailed`,
 * the blocked job is dead: it stays held and must be collected with
 * `takeDead` so the caller can fail the graph.
 */

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "farm/job.h"

namespace vtrans::farm {

/** Orderings a queue can serve jobs in. */
enum class QueuePolicy : uint8_t { Fifo, Priority, Edf };

/** Human-readable policy name ("fifo", "priority", "edf"). */
std::string toString(QueuePolicy policy);
/** Parses a policy name; fatal error on an unknown name. */
QueuePolicy queuePolicyFromName(const std::string& name);

/** The planner's ordered backlog of jobs (see file comment). */
class JobQueue
{
  public:
    /** Creates an empty queue serving `policy`. */
    explicit JobQueue(QueuePolicy policy) : policy_(policy) {}

    /** Enqueues a job. */
    void push(Job job);

    /** Pops the best job per policy with ready_time <= now. */
    std::optional<Job> tryPop(double now);

    /**
     * The first `limit` eligible jobs (ready_time <= now) in policy
     * order — the dispatcher's matching window. Returns copies.
     */
    std::vector<Job> peekWindow(double now, size_t limit) const;

    /** Removes the job with the given id; false if not present. */
    bool remove(uint64_t id);

    /** Records a dependency as completed; jobs blocked only on Done
     *  dependencies become eligible. */
    void markDone(uint64_t id) { done_.insert(id); }

    /** Records a dependency as failed; jobs blocked on it become dead
     *  (collectable via `takeDead`). */
    void markFailed(uint64_t id) { failed_.insert(id); }

    /** Removes and returns every held job with a failed dependency. */
    std::vector<Job> takeDead();

    size_t size() const { return jobs_.size(); }
    bool empty() const { return jobs_.empty(); }

  private:
    /** True if `a` should be served before `b` under the policy. */
    bool before(const Job& a, const Job& b) const;

    /** Ready and unblocked: every dependency Done, none failed, and
     *  ready_time <= now. */
    bool eligible(const Job& job, double now) const;

    /** True if any dependency of `job` has failed. */
    bool deadlocked(const Job& job) const;

    /** Index of the best eligible job, or -1. */
    int bestIndex(double now) const;

    QueuePolicy policy_;
    std::vector<Job> jobs_;
    std::set<uint64_t> done_;    ///< Dependency ids reported complete.
    std::set<uint64_t> failed_;  ///< Dependency ids reported failed.
};

} // namespace vtrans::farm

#endif // VTRANS_FARM_QUEUE_H_
