#ifndef VTRANS_UARCH_TIMING_H_
#define VTRANS_UARCH_TIMING_H_

/**
 * @file
 * Internal to the core model: one class's clock, dispatch windows, stall
 * attribution and phase capture (DESIGN.md §13). CoreModel's timing stage
 * and the instruction-stepped oracle (uarch/stepping.h) both build on it;
 * each brings its own dispatch, so nothing here knows which one it
 * serves. The out-of-line members are defined in core.cc, beside the
 * timing stage that calls them on every event.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "uarch/core.h"
#include "uarch/ringbuf.h"

namespace vtrans::uarch {

/** One class's clock, windows, stall attribution and phase samples. */
struct TimingState
{
    enum class StallCause : uint8_t
    {
        Frontend,
        BadSpeculation,
        BackendMemory,
        BackendCore,
    };

    struct WindowEntry
    {
        uint64_t time;  ///< Retire/issue/drain cycle.
        uint32_t count; ///< Instructions coalesced into this entry.
        bool is_mem;    ///< Blocking on memory (stall attribution).
    };

    explicit TimingState(const CoreParams& p);

    /** Applies a fetch penalty starting now (0 = none). */
    void delayFetch(uint64_t penalty);

    /** Redirect after a branch resolved at `resolve`. */
    void redirect(bool taken, bool mispredict, bool btb_hit,
                  uint64_t resolve);

    void advanceTo(uint64_t target_cycle, StallCause cause);
    void resolveFrontend();
    void ensureRobSpace(uint32_t count);
    void ensureRsSpace(uint32_t count);
    void ensureSbSpace(uint32_t count);
    void robPush(uint64_t complete, uint32_t count, bool is_mem);
    void rsPush(uint64_t free, uint32_t count, bool is_mem);
    void sbPush(uint64_t drain_time, uint32_t count);
    void drain();
    void capturePhase();

    /** Runs the clock to the last retirement and closes the counters. */
    void finishClock();

    CoreParams params;
    /// Largest instruction chunk a block dispatches at once: the
    /// smaller window structure.
    uint32_t max_chunk = 0;

    // Dispatch state.
    alignas(64) uint64_t cur_cycle = 0;
    uint32_t slots_in_cycle = 0;

    // Frontend availability.
    uint64_t fetch_ready = 0;
    StallCause fetch_reason = StallCause::Frontend;

    // Window occupancy. Ring buffers instead of deques: coalescing keeps
    // the entry count far below the modelled structure size, so in
    // steady state these never allocate (see uarch/ringbuf.h).
    RingBuffer<WindowEntry> rob;
    RingBuffer<WindowEntry> rs;
    RingBuffer<WindowEntry> sb;
    uint64_t rob_count = 0;
    uint64_t rs_count = 0;
    uint64_t sb_count = 0;
    uint64_t rob_last_complete = 0;
    uint64_t rs_last_free = 0;
    uint64_t sb_last_drain = 0;

    uint64_t last_load_complete = 0;
    RingBuffer<uint64_t> mshr; ///< Completion times of in-flight misses.

    CoreStats stats;

    // Per-site attribution (CoreParams::attribute_sites). attr_cur is
    // null when attribution is off — a single predictable branch guards
    // every mirrored charge — and otherwise always points at a live
    // bucket (initially the unattributed one). It is refreshed on every
    // site record, the only records that can grow attr_sites, so it
    // never dangles across intervening loads/stores.
    std::vector<SiteUarch> attr_sites;
    SiteUarch attr_unattributed;
    SiteUarch* attr_cur = nullptr;

    // Phase time-series (CoreParams::phase_window). next_phase stays at
    // UINT64_MAX when sampling is off, so the hot dispatch loop pays one
    // never-taken compare per instruction.
    std::vector<PhaseSample> phase;
    uint64_t next_phase = UINT64_MAX;
};

/** The bucket of `site_id` in a per-site table, growing it on demand. */
inline SiteUarch&
siteBucket(std::vector<SiteUarch>& table, uint32_t site_id)
{
    if (site_id >= table.size()) {
        table.resize(site_id + 1);
    }
    return table[site_id];
}

// The window helpers below are force-inlined: the timing stage makes
// about six of these calls per event, and as the slowest stage it sets
// the pipeline's rate (GCC's -O2 heuristics kept them out of line).
[[gnu::always_inline]] inline void
TimingState::drain()
{
    while (!rob.empty() && rob.front().time <= cur_cycle) {
        rob_count -= rob.front().count;
        rob.pop_front();
    }
    while (!rs.empty() && rs.front().time <= cur_cycle) {
        rs_count -= rs.front().count;
        rs.pop_front();
    }
    while (!sb.empty() && sb.front().time <= cur_cycle) {
        sb_count -= sb.front().count;
        sb.pop_front();
    }
}

[[gnu::always_inline]] inline void
TimingState::ensureRobSpace(uint32_t count)
{
    while (rob_count + count > static_cast<uint64_t>(params.rob_size)) {
        VT_ASSERT(!rob.empty(), "ROB accounting broke");
        const WindowEntry& head = rob.front();
        if (head.time > cur_cycle) {
            const uint64_t before =
                stats.slots_backend_memory + stats.slots_backend_core;
            advanceTo(head.time, head.is_mem ? StallCause::BackendMemory
                                             : StallCause::BackendCore);
            stats.slots_rob_stall +=
                stats.slots_backend_memory + stats.slots_backend_core
                - before;
        }
        drain();
    }
}

[[gnu::always_inline]] inline void
TimingState::robPush(uint64_t complete, uint32_t count, bool is_mem)
{
    // In-order retirement: completion times are made monotone so an entry
    // cannot retire before its predecessors.
    complete = std::max(complete, rob_last_complete);
    rob_last_complete = complete;
    if (!rob.empty() && rob.back().time == complete
        && rob.back().is_mem == is_mem) {
        rob.back().count += count;
    } else {
        rob.emplace_back(complete, count, is_mem);
    }
    rob_count += count;
}

[[gnu::always_inline]] inline void
TimingState::ensureRsSpace(uint32_t count)
{
    if (params.issue_at_dispatch) {
        return;
    }
    while (rs_count + count > static_cast<uint64_t>(params.rs_size)) {
        VT_ASSERT(!rs.empty(), "RS accounting broke");
        const WindowEntry& head = rs.front();
        if (head.time > cur_cycle) {
            const uint64_t before =
                stats.slots_backend_memory + stats.slots_backend_core;
            advanceTo(head.time, head.is_mem ? StallCause::BackendMemory
                                             : StallCause::BackendCore);
            stats.slots_rs_stall +=
                stats.slots_backend_memory + stats.slots_backend_core
                - before;
        }
        drain();
    }
}

[[gnu::always_inline]] inline void
TimingState::rsPush(uint64_t free, uint32_t count, bool is_mem)
{
    if (params.issue_at_dispatch) {
        return; // be_op2: instructions leave the RS immediately.
    }
    free = std::max(free, rs_last_free);
    rs_last_free = free;
    if (!rs.empty() && rs.back().time == free && rs.back().is_mem == is_mem) {
        rs.back().count += count;
    } else {
        rs.emplace_back(free, count, is_mem);
    }
    rs_count += count;
}

[[gnu::always_inline]] inline void
TimingState::ensureSbSpace(uint32_t count)
{
    while (sb_count + count > static_cast<uint64_t>(params.sb_size)) {
        VT_ASSERT(!sb.empty(), "SB accounting broke");
        const WindowEntry& head = sb.front();
        if (head.time > cur_cycle) {
            const uint64_t before =
                stats.slots_backend_memory + stats.slots_backend_core;
            // The paper groups store-buffer stalls under core bound
            // (Fig 5e-h discussion).
            advanceTo(head.time, StallCause::BackendCore);
            stats.slots_sb_stall +=
                stats.slots_backend_memory + stats.slots_backend_core
                - before;
        }
        drain();
    }
}

[[gnu::always_inline]] inline void
TimingState::sbPush(uint64_t drain_time, uint32_t count)
{
    // Stores drain in order: drain times are made monotone like ROB
    // completion times, and same-cycle drains coalesce into one entry.
    const uint64_t t = std::max(drain_time, sb_last_drain);
    sb_last_drain = t;
    if (!sb.empty() && sb.back().time == t) {
        sb.back().count += count;
    } else {
        sb.emplace_back(t, count, true);
    }
    sb_count += count;
}

[[gnu::always_inline]] inline void
TimingState::resolveFrontend()
{
    if (fetch_ready > cur_cycle) {
        advanceTo(fetch_ready, fetch_reason);
        drain();
    }
}

[[gnu::always_inline]] inline void
TimingState::delayFetch(uint64_t penalty)
{
    if (penalty > 0) {
        const uint64_t ready = cur_cycle + penalty;
        if (ready > fetch_ready) {
            fetch_ready = ready;
            fetch_reason = StallCause::Frontend;
        }
    }
}

[[gnu::always_inline]] inline void
TimingState::redirect(bool taken, bool mispredict, bool btb_hit,
                      uint64_t resolve)
{
    if (mispredict) {
        ++stats.branch_mispredicts;
        const uint64_t ready =
            resolve + static_cast<uint64_t>(params.mispredict_penalty);
        if (ready > fetch_ready) {
            fetch_ready = ready;
            fetch_reason = StallCause::BadSpeculation;
        }
    } else if (taken) {
        // Correctly predicted taken: redirect bubble, larger on BTB miss.
        const int bubble =
            btb_hit ? params.taken_bubble : params.btb_miss_penalty;
        const uint64_t ready = cur_cycle + bubble;
        if (ready > fetch_ready) {
            fetch_ready = ready;
            fetch_reason = StallCause::Frontend;
        }
    }
}

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_TIMING_H_
