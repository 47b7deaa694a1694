#ifndef VTRANS_COMMON_CORES_H_
#define VTRANS_COMMON_CORES_H_

/**
 * @file
 * The process-wide core budget: how many of the machine's cores no
 * worker pool or pipelined core model currently holds.
 *
 * The count starts at std::thread::hardware_concurrency() (at least 1).
 * A threaded `farm::WorkerPool` holds min(workers, tasks) cores for the
 * length of each `run()`, whether or not that many are free, so the count
 * can go negative while a pool oversubscribes the machine. A
 * `uarch::CoreModel` starts its two helper threads only if it can take
 * two free cores (`CoreHold::ifFree`), and runs its stages inline on the
 * probe-emitting thread otherwise. Nothing else reads or moves the count.
 */

namespace vtrans {

/** Cores currently held by nobody (may be zero or negative). */
int freeCores();

/** Holds cores for its lifetime and returns them on destruction. */
class CoreHold
{
  public:
    /** Holds `n` cores unconditionally (0 holds none). */
    explicit CoreHold(int n = 0);

    /** Holds `n` cores if at least `n` are free, else holds none. */
    static CoreHold ifFree(int n);

    CoreHold(CoreHold&& other) noexcept;
    CoreHold& operator=(CoreHold&& other) noexcept;
    CoreHold(const CoreHold&) = delete;
    CoreHold& operator=(const CoreHold&) = delete;
    ~CoreHold();

    /** Cores this hold has taken (0 after a failed ifFree). */
    int count() const { return count_; }

  private:
    int count_ = 0;
};

} // namespace vtrans

#endif // VTRANS_COMMON_CORES_H_
