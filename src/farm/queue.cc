#include "farm/queue.h"

#include <algorithm>
#include <limits>

#include "common/status.h"

namespace vtrans::farm {

std::string
toString(QueuePolicy policy)
{
    switch (policy) {
      case QueuePolicy::Fifo:
        return "fifo";
      case QueuePolicy::Priority:
        return "priority";
      case QueuePolicy::Edf:
        return "edf";
    }
    return "?";
}

QueuePolicy
queuePolicyFromName(const std::string& name)
{
    if (name == "fifo") {
        return QueuePolicy::Fifo;
    }
    if (name == "priority") {
        return QueuePolicy::Priority;
    }
    if (name == "edf") {
        return QueuePolicy::Edf;
    }
    VT_FATAL("unknown queue policy: ", name, " (fifo, priority, edf)");
}

namespace {

/** Deadline key: deadline-less jobs sort after every real deadline. */
double
deadlineKey(const Job& job)
{
    return job.deadline > 0.0 ? job.deadline
                              : std::numeric_limits<double>::infinity();
}

} // namespace

bool
JobQueue::before(const Job& a, const Job& b) const
{
    switch (policy_) {
      case QueuePolicy::Priority:
        if (a.priority != b.priority) {
            return a.priority > b.priority;
        }
        break;
      case QueuePolicy::Edf:
        if (deadlineKey(a) != deadlineKey(b)) {
            return deadlineKey(a) < deadlineKey(b);
        }
        break;
      case QueuePolicy::Fifo:
        break;
    }
    if (a.ready_time != b.ready_time) {
        return a.ready_time < b.ready_time;
    }
    return a.id < b.id;
}

bool
JobQueue::deadlocked(const Job& job) const
{
    for (uint64_t dep : job.blocked_by) {
        if (failed_.count(dep) != 0) {
            return true;
        }
    }
    return false;
}

bool
JobQueue::eligible(const Job& job, double now) const
{
    if (job.ready_time > now) {
        return false;
    }
    for (uint64_t dep : job.blocked_by) {
        if (done_.count(dep) == 0) {
            return false; // Unfinished or failed dependency: held.
        }
    }
    return true;
}

int
JobQueue::bestIndex(double now) const
{
    int best = -1;
    for (size_t i = 0; i < jobs_.size(); ++i) {
        if (!eligible(jobs_[i], now)) {
            continue;
        }
        if (best < 0 || before(jobs_[i], jobs_[best])) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

void
JobQueue::push(Job job)
{
    jobs_.push_back(std::move(job));
}

std::optional<Job>
JobQueue::tryPop(double now)
{
    const int best = bestIndex(now);
    if (best < 0) {
        return std::nullopt;
    }
    Job job = std::move(jobs_[best]);
    jobs_.erase(jobs_.begin() + best);
    return job;
}

std::vector<Job>
JobQueue::peekWindow(double now, size_t limit) const
{
    // Select the first `limit` jobs in policy order without copying (or
    // fully sorting) every eligible job: this runs on the dispatch hot
    // path once per planner tick, against a potentially deep backlog.
    std::vector<const Job*> ready;
    for (const Job& job : jobs_) {
        if (eligible(job, now)) {
            ready.push_back(&job);
        }
    }
    const size_t take = std::min(limit, ready.size());
    std::partial_sort(ready.begin(), ready.begin() + take, ready.end(),
                      [this](const Job* a, const Job* b) {
                          return before(*a, *b);
                      });
    std::vector<Job> window;
    window.reserve(take);
    for (size_t i = 0; i < take; ++i) {
        window.push_back(*ready[i]);
    }
    return window;
}

bool
JobQueue::remove(uint64_t id)
{
    for (size_t i = 0; i < jobs_.size(); ++i) {
        if (jobs_[i].id == id) {
            jobs_.erase(jobs_.begin() + i);
            return true;
        }
    }
    return false;
}

std::vector<Job>
JobQueue::takeDead()
{
    std::vector<Job> dead;
    for (size_t i = 0; i < jobs_.size();) {
        if (deadlocked(jobs_[i])) {
            dead.push_back(std::move(jobs_[i]));
            jobs_.erase(jobs_.begin() + i);
        } else {
            ++i;
        }
    }
    return dead;
}

} // namespace vtrans::farm
