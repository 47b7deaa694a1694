#include "farm/server.h"

#include <algorithm>
#include <chrono>

#include "common/cores.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace vtrans::farm {

namespace {

/** Runs one pool task, recording wall time + count into the process
 *  metrics registry (shared by the inline and threaded paths). */
void
runPoolTask(const std::function<void()>& task)
{
    const auto start = std::chrono::steady_clock::now();
    task();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - start)
            .count();
    obs::metrics()
        .counter("pool_tasks_total", "Tasks executed by the worker pool")
        .inc();
    obs::metrics()
        .histogram("pool_task_wall_seconds",
                   "Wall-clock duration of worker-pool tasks")
        .observe(seconds);
}

} // namespace

std::vector<Server>
makeFleet(const std::vector<uarch::CoreParams>& pool, int replicas)
{
    VT_ASSERT(!pool.empty(), "farm fleet needs at least one config");
    VT_ASSERT(replicas >= 1, "farm fleet needs at least one replica");
    std::vector<Server> fleet;
    int id = 0;
    for (const auto& core : pool) {
        for (int r = 0; r < replicas; ++r) {
            Server s;
            s.id = id++;
            s.config = core.name;
            s.name = core.name + "#" + std::to_string(r);
            s.replica = r;
            s.core = core;
            fleet.push_back(std::move(s));
        }
    }
    return fleet;
}

WorkerPool::WorkerPool(int workers) : workers_(workers < 1 ? 1 : workers)
{
    // A single-worker pool runs batches inline: no threads, and the
    // execution order is exactly the batch order (the serial reference).
    if (workers_ == 1) {
        return;
    }
    threads_.reserve(workers_);
    for (int i = 0; i < workers_; ++i) {
        threads_.emplace_back([this] { workerMain(); });
    }
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::workerMain()
{
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t seen_generation = 0;
    while (true) {
        work_cv_.wait(lock, [&] {
            return stopping_
                   || (batch_ != nullptr && generation_ != seen_generation);
        });
        if (stopping_) {
            return;
        }
        seen_generation = generation_;
        while (batch_ != nullptr && next_ < batch_->size()) {
            auto& task = (*batch_)[next_++];
            ++running_;
            lock.unlock();
            runPoolTask(task);
            lock.lock();
            --running_;
        }
        if (batch_ != nullptr && next_ >= batch_->size() && running_ == 0) {
            done_cv_.notify_all();
        }
    }
}

void
WorkerPool::run(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty()) {
        return;
    }
    obs::metrics()
        .counter("pool_batches_total", "Task batches run on the worker pool")
        .inc();
    if (threads_.empty()) {
        for (auto& task : tasks) {
            runPoolTask(task);
        }
        return;
    }
    // The caller blocks below while the workers run, so the batch holds
    // one core per worker it can keep busy (see common/cores.h).
    const CoreHold cores(
        static_cast<int>(std::min<size_t>(threads_.size(), tasks.size())));
    std::unique_lock<std::mutex> lock(mu_);
    batch_ = &tasks;
    next_ = 0;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock,
                  [&] { return next_ >= tasks.size() && running_ == 0; });
    batch_ = nullptr;
}

void
WorkerPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        work_cv_.notify_all();
    }
    for (auto& t : threads_) {
        if (t.joinable()) {
            t.join();
        }
    }
    threads_.clear();
}

} // namespace vtrans::farm
