#ifndef VTRANS_UARCH_RINGBUF_H_
#define VTRANS_UARCH_RINGBUF_H_

/**
 * @file
 * A minimal FIFO ring buffer for the core model's instruction windows.
 *
 * The ROB/RS/store-buffer occupancy queues only ever push at the back and
 * pop at the front, and their steady-state depth is bounded by the modelled
 * structure size — `std::deque` pays chunked allocation and an extra
 * indirection per access for generality none of that needs. This ring keeps
 * entries in one contiguous power-of-two array with wrap-around indexing,
 * so front()/back()/push/pop are a mask and a load.
 *
 * Capacity grows by doubling when full (the MSHR queue can legitimately
 * exceed its nominal entry count: completions in the future are pushed
 * without popping), so the container is unbounded like the deque it
 * replaces — "fixed-capacity" refers to the steady state, where no
 * allocation ever happens on the hot path.
 */

#include <cstddef>
#include <utility>
#include <vector>

namespace vtrans::uarch {

template <typename T>
class RingBuffer
{
  public:
    /** Rounds `min_capacity` up to a power of two (at least 4). */
    explicit RingBuffer(size_t min_capacity = 16)
    {
        size_t capacity = 4;
        while (capacity < min_capacity) {
            capacity *= 2;
        }
        slots_.resize(capacity);
        mask_ = capacity - 1;
    }

    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    size_t capacity() const { return slots_.size(); }

    // The accessors and push/pop below are forced inline: the core
    // model's timing stage calls them from many always-inline helpers,
    // and GCC's size heuristics otherwise emit them out of line.
    [[gnu::always_inline]] T& front() { return slots_[head_]; }
    [[gnu::always_inline]] const T& front() const { return slots_[head_]; }
    [[gnu::always_inline]] T&
    back()
    {
        return slots_[(head_ + count_ - 1) & mask_];
    }
    [[gnu::always_inline]] const T&
    back() const
    {
        return slots_[(head_ + count_ - 1) & mask_];
    }

    /** Element `i` positions from the front (0 == front()). */
    const T& operator[](size_t i) const { return slots_[(head_ + i) & mask_]; }

    [[gnu::always_inline]] void
    push_back(const T& value)
    {
        emplace_back(value);
    }

    /** Constructs the new back element from `args` directly in its slot
     *  (aggregate initialization), so the caller builds no temporary. */
    template <typename... Args>
    [[gnu::always_inline]] void
    emplace_back(Args&&... args)
    {
        if (count_ == slots_.size()) [[unlikely]] {
            grow();
        }
        slots_[(head_ + count_) & mask_] = T{std::forward<Args>(args)...};
        ++count_;
    }

    [[gnu::always_inline]] void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    /** Out of line and cold, so the push path stays small enough to
     *  inline into the model's hot loops. */
    [[gnu::noinline, gnu::cold]] void
    grow()
    {
        std::vector<T> bigger(slots_.size() * 2);
        for (size_t i = 0; i < count_; ++i) {
            bigger[i] = std::move(slots_[(head_ + i) & mask_]);
        }
        slots_ = std::move(bigger);
        head_ = 0;
        mask_ = slots_.size() - 1;
    }

    std::vector<T> slots_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t count_ = 0;
};

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_RINGBUF_H_
