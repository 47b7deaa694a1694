#ifndef VTRANS_FARM_SERVER_H_
#define VTRANS_FARM_SERVER_H_

/**
 * @file
 * The farm's fleet and execution engine.
 *
 * A `Server` is one simulated machine: a Table IV microarchitecture
 * variant (or a replica of one) identified by a stable id. `makeFleet`
 * builds the heterogeneous pool the paper's scheduler study assumes —
 * K replicas of each configuration.
 *
 * `WorkerPool` owns N real threads and executes batches of independent
 * closures. Because every instrumented run uses a thread-local probe sink
 * and simulated heap (see trace/probe.h), runs on different workers are
 * embarrassingly parallel and produce bit-identical results regardless of
 * worker count or interleaving.
 */

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "uarch/core.h"

namespace vtrans::farm {

/** One simulated machine of the fleet. */
struct Server
{
    int id = 0;            ///< Stable index into the fleet.
    std::string name;      ///< "be_op1#0" — config name + replica.
    std::string config;    ///< The underlying CoreParams name.
    int replica = 0;       ///< Replica number within the config.
    uarch::CoreParams core;
};

/**
 * Builds a fleet of `replicas` servers per pool configuration, in pool
 * order (all replicas of pool[0] first, ids dense from 0).
 */
std::vector<Server> makeFleet(const std::vector<uarch::CoreParams>& pool,
                              int replicas);

/**
 * A pool of N persistent worker threads executing batches of closures.
 *
 * `run()` hands every closure in the batch to the pool (workers claim
 * them via an atomic cursor, so the batch self-balances) and blocks until
 * all have finished. Batches are serialized; closures within one batch
 * must be independent. With `workers == 1` the batch runs inline on the
 * calling thread — the serial reference the determinism tests compare
 * against. A threaded pool holds min(workers, tasks) cores of the
 * process core budget (common/cores.h) for the length of each run(), so
 * core models inside its tasks run their stages inline unless cores are
 * left over; the inline pool holds none.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(int workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Number of worker threads (>= 1). */
    int workers() const { return workers_; }

    /** Executes every task in the batch; returns when all are done. */
    void run(std::vector<std::function<void()>> tasks);

    /** Joins all workers; further run() calls execute inline. */
    void stop();

  private:
    void workerMain();

    int workers_;
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable work_cv_;  ///< Workers wait for a batch.
    std::condition_variable done_cv_;  ///< run() waits for completion.
    std::vector<std::function<void()>>* batch_ = nullptr;
    size_t next_ = 0;      ///< Next unclaimed task in the batch.
    size_t running_ = 0;   ///< Tasks claimed but not yet finished.
    uint64_t generation_ = 0;
    bool stopping_ = false;
};

} // namespace vtrans::farm

#endif // VTRANS_FARM_SERVER_H_
