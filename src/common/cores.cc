#include "common/cores.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

namespace vtrans {

namespace {

std::atomic<int>&
freeCount()
{
    static std::atomic<int> count{
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
    return count;
}

} // namespace

int
freeCores()
{
    return freeCount().load(std::memory_order_relaxed);
}

CoreHold::CoreHold(int n) : count_(n)
{
    freeCount().fetch_sub(n, std::memory_order_relaxed);
}

CoreHold
CoreHold::ifFree(int n)
{
    std::atomic<int>& count = freeCount();
    int free = count.load(std::memory_order_relaxed);
    CoreHold hold;
    while (free >= n) {
        if (count.compare_exchange_weak(free, free - n,
                                        std::memory_order_relaxed)) {
            hold.count_ = n;
            break;
        }
    }
    return hold;
}

CoreHold::CoreHold(CoreHold&& other) noexcept
    : count_(std::exchange(other.count_, 0))
{
}

CoreHold&
CoreHold::operator=(CoreHold&& other) noexcept
{
    if (this != &other) {
        freeCount().fetch_add(count_, std::memory_order_relaxed);
        count_ = std::exchange(other.count_, 0);
    }
    return *this;
}

CoreHold::~CoreHold()
{
    freeCount().fetch_add(count_, std::memory_order_relaxed);
}

} // namespace vtrans
