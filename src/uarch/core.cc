#include "uarch/core.h"

#include <algorithm>
#include <chrono>

#include "common/status.h"

namespace vtrans::uarch {

// ---- Derived metrics ------------------------------------------------------

double
CoreStats::ipc() const
{
    return cycles == 0
               ? 0.0
               : static_cast<double>(instructions) / cycles;
}

namespace {

double
perKilo(uint64_t events, uint64_t instructions)
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(events) / instructions;
}

/** Resource-stall slots -> stall cycles per kilo-instruction. The
 *  slots-to-cycles conversion divides in floating point: an integer
 *  `slots / width` would drop up to (width - 1) slots of every partial
 *  stall cycle from the reported rate. */
double
perKiloStallCycles(uint64_t slots, int width, uint64_t instructions)
{
    return instructions == 0 || width <= 0
               ? 0.0
               : 1000.0 * (static_cast<double>(slots) / width)
                     / static_cast<double>(instructions);
}

} // namespace

double
CoreStats::seconds() const
{
    return static_cast<double>(cycles) / (freq_ghz * 1e9);
}

double
CoreStats::branchMpki() const
{
    return perKilo(branch_mispredicts, instructions);
}

double
CoreStats::l1dMpki() const
{
    return perKilo(l1d_misses, instructions);
}

double
CoreStats::l2Mpki() const
{
    return perKilo(l2_misses, instructions);
}

double
CoreStats::l3Mpki() const
{
    return perKilo(l3_misses, instructions);
}

double
CoreStats::l1iMpki() const
{
    return perKilo(l1i_misses, instructions);
}

TopDown
CoreStats::topdown() const
{
    TopDown td;
    if (slots_total == 0) {
        return td;
    }
    const double total = static_cast<double>(slots_total);
    td.retiring = slots_retiring / total;
    td.frontend = slots_frontend / total;
    td.bad_speculation = slots_bad_spec / total;
    td.backend_memory = slots_backend_memory / total;
    td.backend_core = slots_backend_core / total;
    return td;
}

double
CoreStats::robStallsPki() const
{
    return perKiloStallCycles(slots_rob_stall, width, instructions);
}

double
CoreStats::rsStallsPki() const
{
    return perKiloStallCycles(slots_rs_stall, width, instructions);
}

double
CoreStats::sbStallsPki() const
{
    return perKiloStallCycles(slots_sb_stall, width, instructions);
}

double
CoreStats::anyResourceStallsPki() const
{
    return perKiloStallCycles(
        slots_rob_stall + slots_rs_stall + slots_sb_stall, width,
        instructions);
}

// ---- SiteUarch -------------------------------------------------------------

void
SiteUarch::add(const SiteUarch& other)
{
    blocks += other.blocks;
    taken += other.taken;
    loads += other.loads;
    stores += other.stores;
    load_bytes += other.load_bytes;
    store_bytes += other.store_bytes;
    cycles += other.cycles;
    slots_retiring += other.slots_retiring;
    slots_frontend += other.slots_frontend;
    slots_bad_spec += other.slots_bad_spec;
    slots_backend_memory += other.slots_backend_memory;
    slots_backend_core += other.slots_backend_core;
    branches += other.branches;
    branch_mispredicts += other.branch_mispredicts;
    l1d_accesses += other.l1d_accesses;
    l1d_misses += other.l1d_misses;
    l2_misses += other.l2_misses;
    l3_misses += other.l3_misses;
    l1i_accesses += other.l1i_accesses;
    l1i_misses += other.l1i_misses;
    itlb_misses += other.itlb_misses;
    btb_misses += other.btb_misses;
}

// ---- CoreModel -------------------------------------------------------------

CoreModel::CoreModel(const CoreParams& params)
    : params_(params),
      reference_stepping_(params.reference_stepping),
      caches_(params.l1d, params.l1i, params.l2, params.l3, params.l4_size,
              params.latencies),
      itlb_(params.itlb_entries),
      predictor_(makePredictor(params.predictor)),
      btb_(),
      // Window rings hold at most one coalesced entry per occupant, so
      // reserving the modelled structure size up front means steady-state
      // pushes never reallocate — even with the fast-forward path's lazy
      // draining, occupancy (and thus entry count) stays bounded by the
      // structure size via ensure*Space().
      rob_(static_cast<size_t>(std::max(params.rob_size, 1))),
      rs_(static_cast<size_t>(std::max(params.rs_size, 1))),
      sb_(static_cast<size_t>(std::max(params.sb_size, 1))),
      mshr_(static_cast<size_t>(std::max(params.mshr_entries, 1)) * 2)
{
    VT_ASSERT(params_.width > 0 && params_.rob_size > 0
                  && params_.rs_size > 0 && params_.sb_size > 0,
              "invalid core parameters");
    // A load's latency and a block's fetch penalty cross the ring in
    // 29- and 30-bit fields (StageRecord); latencies below 2^24 keep
    // both sums in range.
    const LatencyParams& lat = params_.latencies;
    for (int cycles : {lat.l1, lat.l2, lat.l3, lat.l4, lat.memory,
                       lat.itlb_miss}) {
        VT_ASSERT(cycles >= 0 && cycles < (1 << 24),
                  "invalid core parameters: latency ", cycles);
    }
    stats_.width = params_.width;
    stats_.freq_ghz = params_.freq_ghz;
    if (params_.attribute_sites) {
        attr_cur_ = &attr_unattributed_;
        order_attr_cur_ = &order_attr_unattributed_;
    }
    if (params_.phase_window > 0) {
        next_phase_ = params_.phase_window;
    }
    ring_[0].records = std::make_unique_for_overwrite<StageRecord[]>(
        kSlotRecords);
    pos_ = ring_[0].records.get();
    end_ = pos_ + kSlotRecords;
}

CoreModel::~CoreModel()
{
    stopHelpers();
}

namespace {

/** The bucket of `site_id` in a per-site table, growing it on demand. */
SiteUarch&
siteBucket(std::vector<SiteUarch>& table, uint32_t site_id)
{
    if (site_id >= table.size()) {
        table.resize(site_id + 1);
    }
    return table[site_id];
}

} // namespace

void
CoreModel::capturePhase()
{
    PhaseSample s;
    s.instructions = stats_.instructions;
    s.cycles = cur_cycle_;
    s.slots_retiring = stats_.slots_retiring;
    s.slots_frontend = stats_.slots_frontend;
    s.slots_bad_spec = stats_.slots_bad_spec;
    s.slots_backend_memory = stats_.slots_backend_memory;
    s.slots_backend_core = stats_.slots_backend_core;
    s.branches = stats_.branches;
    s.branch_mispredicts = stats_.branch_mispredicts;
    s.l1d_misses = stats_.l1d_misses;
    s.l2_misses = stats_.l2_misses;
    s.l3_misses = stats_.l3_misses;
    s.l1i_misses = stats_.l1i_misses;
    phase_.push_back(s);
    next_phase_ += params_.phase_window;
}

void
CoreModel::advanceTo(uint64_t target_cycle, StallCause cause)
{
    if (target_cycle <= cur_cycle_) {
        return;
    }
    const uint64_t empty =
        (target_cycle - cur_cycle_) * params_.width - slots_in_cycle_;
    switch (cause) {
      case StallCause::Frontend:
        stats_.slots_frontend += empty;
        break;
      case StallCause::BadSpeculation:
        stats_.slots_bad_spec += empty;
        break;
      case StallCause::BackendMemory:
        stats_.slots_backend_memory += empty;
        break;
      case StallCause::BackendCore:
        stats_.slots_backend_core += empty;
        break;
    }
    if (attr_cur_ != nullptr) {
        attr_cur_->cycles += target_cycle - cur_cycle_;
        switch (cause) {
          case StallCause::Frontend:
            attr_cur_->slots_frontend += empty;
            break;
          case StallCause::BadSpeculation:
            attr_cur_->slots_bad_spec += empty;
            break;
          case StallCause::BackendMemory:
            attr_cur_->slots_backend_memory += empty;
            break;
          case StallCause::BackendCore:
            attr_cur_->slots_backend_core += empty;
            break;
        }
    }
    cur_cycle_ = target_cycle;
    slots_in_cycle_ = 0;
}

// The window helpers from here to resolveFrontend() are force-inlined:
// the timing stage makes about six of these calls per event, and as the
// slowest stage it sets the pipeline's rate (GCC's -O2 heuristics kept
// them out of line).
[[gnu::always_inline]] inline void
CoreModel::drain()
{
    while (!rob_.empty() && rob_.front().time <= cur_cycle_) {
        rob_count_ -= rob_.front().count;
        rob_.pop_front();
    }
    while (!rs_.empty() && rs_.front().time <= cur_cycle_) {
        rs_count_ -= rs_.front().count;
        rs_.pop_front();
    }
    while (!sb_.empty() && sb_.front().time <= cur_cycle_) {
        sb_count_ -= sb_.front().count;
        sb_.pop_front();
    }
}

[[gnu::always_inline]] inline void
CoreModel::dispatch(uint32_t count)
{
    // Event-driven fast-forward (DESIGN.md §13). Two facts make a
    // closed-form advance bit-exact vs the stepped reference loop:
    //
    //  1. fetch_ready_ is invariant across this call and cur_cycle_ only
    //     grows, so the per-instruction frontend check can fire at most
    //     once — on the first instruction. Hoist it.
    //  2. drain() only pops window entries whose time has passed, and an
    //     entry expired at cycle T is still expired at every later cycle;
    //     nothing in dispatch reads window occupancy, and every consumer
    //     of occupancy (ensure*Space, which also charges the stalls)
    //     drains before deciding. So the stepped loop's per-rollover
    //     drains commute past the whole span, and one drain at the end
    //     frees the same entries with the same counters.
    //
    // What remains is pure arithmetic on (cur_cycle_, slots_in_cycle_,
    // slots_retiring, instructions): advance it in closed form.
    if (reference_stepping_) {
        referenceDispatch(count);
        return;
    }
    if (fetch_ready_ > cur_cycle_) {
        advanceTo(fetch_ready_, fetch_reason_);
        drain();
    }
    const uint32_t width = static_cast<uint32_t>(params_.width);
    const uint64_t slots0 = slots_in_cycle_;
    // slots_in_cycle_ < width always holds between calls, so single-
    // instruction events (every load, store, and branch) never need the
    // hardware divide: the span either stays inside the current cycle or
    // fills it exactly.
    const uint64_t total = slots0 + count;
    uint64_t rolled;
    uint32_t rem;
    if (total < width) {
        rolled = 0;
        rem = static_cast<uint32_t>(total);
    } else if (count == 1) {
        rolled = 1; // slots0 + 1 == width exactly.
        rem = 0;
    } else {
        rolled = total / width;
        rem = static_cast<uint32_t>(total % width);
    }
    if (attr_cur_ == nullptr && next_phase_ == UINT64_MAX) {
        // Hot path: attribution and phase sampling both off.
        stats_.slots_retiring += count;
        stats_.instructions += count;
        cur_cycle_ += rolled;
        slots_in_cycle_ = rem;
        if (rolled > 0) {
            drain();
        }
        return;
    }
    // Instrumented path. The attribution bucket cannot change inside
    // dispatch (only the block/branch probes retarget attr_cur_), so the
    // per-site charges post once; phase samples must land exactly on
    // window boundaries, so the span splits there — O(captures), not
    // O(instructions).
    const uint64_t cycle0 = cur_cycle_;
    if (next_phase_ == UINT64_MAX) {
        stats_.slots_retiring += count;
        stats_.instructions += count;
    } else {
        uint64_t done = 0;
        while (done < count) {
            const uint64_t to_boundary = next_phase_ - stats_.instructions;
            const uint64_t span =
                std::min<uint64_t>(count - done, to_boundary);
            stats_.slots_retiring += span;
            stats_.instructions += span;
            done += span;
            if (span == to_boundary) {
                // The reference loop samples after the boundary
                // instruction's retire/instruction increments but before
                // its dispatch slot is consumed: position the clock at
                // the cycle the first (done - 1) slots of this call
                // reached, then capture.
                cur_cycle_ = cycle0 + (slots0 + done - 1) / width;
                capturePhase();
            }
        }
    }
    cur_cycle_ = cycle0 + rolled;
    slots_in_cycle_ = rem;
    if (attr_cur_ != nullptr) {
        attr_cur_->slots_retiring += count;
        attr_cur_->cycles += rolled;
    }
    if (rolled > 0) {
        drain();
    }
}

void
CoreModel::referenceDispatch(uint32_t count)
{
    if (attr_cur_ == nullptr && next_phase_ == UINT64_MAX) {
        // The pre-fast-forward hot path: one step per retired
        // instruction (retained for the differential suite).
        for (uint32_t i = 0; i < count; ++i) {
            // Frontend availability gates dispatch.
            if (fetch_ready_ > cur_cycle_) {
                advanceTo(fetch_ready_, fetch_reason_);
                drain();
            }
            ++stats_.slots_retiring;
            ++stats_.instructions;
            ++slots_in_cycle_;
            if (slots_in_cycle_ == static_cast<uint32_t>(params_.width)) {
                ++cur_cycle_;
                slots_in_cycle_ = 0;
                drain();
            }
        }
        return;
    }
    // Instrumented reference path: per-site charges accumulate in locals
    // and post once after the loop; the phase check stays per
    // instruction so samples land on window boundaries.
    uint64_t cycles_rolled = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (fetch_ready_ > cur_cycle_) {
            advanceTo(fetch_ready_, fetch_reason_);
            drain();
        }
        ++stats_.slots_retiring;
        ++stats_.instructions;
        if (stats_.instructions >= next_phase_) {
            capturePhase();
        }
        ++slots_in_cycle_;
        if (slots_in_cycle_ == static_cast<uint32_t>(params_.width)) {
            ++cur_cycle_;
            slots_in_cycle_ = 0;
            ++cycles_rolled;
            drain();
        }
    }
    if (attr_cur_ != nullptr) {
        attr_cur_->slots_retiring += count;
        attr_cur_->cycles += cycles_rolled;
    }
}

[[gnu::always_inline]] inline void
CoreModel::ensureRobSpace(uint32_t count)
{
    while (rob_count_ + count > static_cast<uint64_t>(params_.rob_size)) {
        VT_ASSERT(!rob_.empty(), "ROB accounting broke");
        const WindowEntry& head = rob_.front();
        if (head.time > cur_cycle_) {
            const uint64_t before =
                stats_.slots_backend_memory + stats_.slots_backend_core;
            advanceTo(head.time, head.is_mem ? StallCause::BackendMemory
                                             : StallCause::BackendCore);
            stats_.slots_rob_stall +=
                stats_.slots_backend_memory + stats_.slots_backend_core
                - before;
        }
        drain();
    }
}

[[gnu::always_inline]] inline void
CoreModel::robPush(uint64_t complete, uint32_t count, bool is_mem)
{
    // In-order retirement: completion times are made monotone so an entry
    // cannot retire before its predecessors.
    complete = std::max(complete, rob_last_complete_);
    rob_last_complete_ = complete;
    if (!rob_.empty() && rob_.back().time == complete
        && rob_.back().is_mem == is_mem) {
        rob_.back().count += count;
    } else {
        rob_.emplace_back(complete, count, is_mem);
    }
    rob_count_ += count;
}

[[gnu::always_inline]] inline void
CoreModel::ensureRsSpace(uint32_t count)
{
    if (params_.issue_at_dispatch) {
        return;
    }
    while (rs_count_ + count > static_cast<uint64_t>(params_.rs_size)) {
        VT_ASSERT(!rs_.empty(), "RS accounting broke");
        const WindowEntry& head = rs_.front();
        if (head.time > cur_cycle_) {
            const uint64_t before =
                stats_.slots_backend_memory + stats_.slots_backend_core;
            advanceTo(head.time, head.is_mem ? StallCause::BackendMemory
                                             : StallCause::BackendCore);
            stats_.slots_rs_stall +=
                stats_.slots_backend_memory + stats_.slots_backend_core
                - before;
        }
        drain();
    }
}

[[gnu::always_inline]] inline void
CoreModel::rsPush(uint64_t free, uint32_t count, bool is_mem)
{
    if (params_.issue_at_dispatch) {
        return; // be_op2: instructions leave the RS immediately.
    }
    free = std::max(free, rs_last_free_);
    rs_last_free_ = free;
    if (!rs_.empty() && rs_.back().time == free
        && rs_.back().is_mem == is_mem) {
        rs_.back().count += count;
    } else {
        rs_.emplace_back(free, count, is_mem);
    }
    rs_count_ += count;
}

[[gnu::always_inline]] inline void
CoreModel::ensureSbSpace(uint32_t count)
{
    while (sb_count_ + count > static_cast<uint64_t>(params_.sb_size)) {
        VT_ASSERT(!sb_.empty(), "SB accounting broke");
        const WindowEntry& head = sb_.front();
        if (head.time > cur_cycle_) {
            const uint64_t before =
                stats_.slots_backend_memory + stats_.slots_backend_core;
            // The paper groups store-buffer stalls under core bound
            // (Fig 5e-h discussion).
            advanceTo(head.time, StallCause::BackendCore);
            stats_.slots_sb_stall +=
                stats_.slots_backend_memory + stats_.slots_backend_core
                - before;
        }
        drain();
    }
}

[[gnu::always_inline]] inline void
CoreModel::sbPush(uint64_t drain_time, uint32_t count)
{
    // Stores drain in order: drain times are made monotone like ROB
    // completion times, and same-cycle drains coalesce into one entry.
    const uint64_t t = std::max(drain_time, sb_last_drain_);
    sb_last_drain_ = t;
    if (!sb_.empty() && sb_.back().time == t) {
        sb_.back().count += count;
    } else {
        sb_.emplace_back(t, count, true);
    }
    sb_count_ += count;
}

[[gnu::always_inline]] inline void
CoreModel::resolveFrontend()
{
    if (fetch_ready_ > cur_cycle_) {
        advanceTo(fetch_ready_, fetch_reason_);
        drain();
    }
}

// ---- Producer: probe events -> ring records ---------------------------------

namespace {

static_assert(alignof(trace::CodeSite) >= 8,
              "site records tag the low three bits of a CodeSite pointer");

/** How long a waiting stage spins before it blocks. A slot of work takes
 *  tens of microseconds, so a stage waiting on a running neighbour sees
 *  its slot well within the spin and never pays a futex wake-up, which
 *  on a virtual machine can cost more than the slot itself. Only a stage
 *  whose neighbour stalls (the codec between instrumented phases, the
 *  end of a run) falls through to blocking. The two helper threads hold
 *  their cores in the budget, so spinning takes no core from anyone. */
constexpr auto kSpinBeforeWait = std::chrono::microseconds(500);

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** Waits until `state` holds `want` (acquire): spins, then blocks. */
void
awaitState(const std::atomic<uint32_t>& state, uint32_t want)
{
    const auto give_up = std::chrono::steady_clock::now() + kSpinBeforeWait;
    for (int spin = 1;; ++spin) {
        if (state.load(std::memory_order_acquire) == want) {
            return;
        }
        cpuRelax();
        if (spin % 64 == 0 && std::chrono::steady_clock::now() > give_up) {
            break;
        }
    }
    for (uint32_t seen = state.load(std::memory_order_acquire); seen != want;
         seen = state.load(std::memory_order_acquire)) {
        state.wait(seen, std::memory_order_acquire);
    }
}

/** Publishes `value` (release) and wakes any waiter. */
void
setState(std::atomic<uint32_t>& state, uint32_t value)
{
    state.store(value, std::memory_order_release);
    state.notify_all();
}

} // namespace

void
CoreModel::onBlock(const trace::CodeSite& site)
{
    if (!reference_stepping_) {
        push(site.address, reinterpret_cast<uintptr_t>(&site) | kBlockBit);
        return;
    }
    // Reference stepping charges the event tallies itself; the pipelined
    // path charges them in the functional stage.
    if (attr_cur_ != nullptr) {
        attr_cur_ = &siteBucket(attr_sites_, site.id);
        ++attr_cur_->blocks;
    }
    referenceOnBlock(site);
}

void
CoreModel::onBranch(const trace::CodeSite& site, bool taken)
{
    if (!reference_stepping_) {
        push(site.address, reinterpret_cast<uintptr_t>(&site) | kBranchBit
                               | (taken ? kFlagBit : 0));
        return;
    }
    if (attr_cur_ != nullptr) {
        attr_cur_ = &siteBucket(attr_sites_, site.id);
        ++attr_cur_->branches;
        attr_cur_->taken += taken ? 1 : 0;
    }
    referenceOnBranch(site, taken);
}

void
CoreModel::onLoad(uint64_t addr, uint32_t bytes)
{
    if (!reference_stepping_) {
        push(addr, static_cast<uint64_t>(bytes) << 32);
        return;
    }
    if (attr_cur_ != nullptr) {
        ++attr_cur_->loads;
        attr_cur_->load_bytes += bytes;
    }
    referenceOnLoad(addr, bytes);
}

void
CoreModel::onStore(uint64_t addr, uint32_t bytes)
{
    if (!reference_stepping_) {
        push(addr, (static_cast<uint64_t>(bytes) << 32) | kFlagBit);
        return;
    }
    if (attr_cur_ != nullptr) {
        ++attr_cur_->stores;
        attr_cur_->store_bytes += bytes;
    }
    referenceOnStore(addr, bytes);
}

void
CoreModel::onBatch(const trace::ProbeEvent* events, size_t count)
{
    if (reference_stepping_) {
        ProbeSink::onBatch(events, count); // Per-event replay.
        return;
    }
    // Loop-heavy streams repeat the same site id back to back, so a
    // one-entry cache skips the registry lookup for the repeat case
    // (CodeSite objects are stable once defined). Only this thread ever
    // reads the registry: records carry the resolved CodeSite.
    trace::SiteRegistry& reg = trace::registry();
    const trace::CodeSite* last_site = nullptr;
    uint32_t last_aux = 0;
    for (size_t i = 0; i < count; ++i) {
        const trace::ProbeEvent& e = events[i];
        switch (e.kind) {
        case trace::ProbeEvent::kBlock:
        case trace::ProbeEvent::kBlockBranch: {
            if (last_site == nullptr || e.aux != last_aux) {
                last_site = &reg.site(e.aux);
                last_aux = e.aux;
            }
            uint64_t tag = reinterpret_cast<uintptr_t>(last_site) | kBlockBit;
            if (e.kind == trace::ProbeEvent::kBlockBranch) {
                tag |= kBranchBit | ((e.flags & 1) != 0 ? kFlagBit : 0);
            }
            push(last_site->address, tag);
            break;
        }
        case trace::ProbeEvent::kLoad:
            push(e.addr, static_cast<uint64_t>(e.aux) << 32);
            break;
        case trace::ProbeEvent::kStore:
            push(e.addr, (static_cast<uint64_t>(e.aux) << 32) | kFlagBit);
            break;
        default:
            VT_PANIC("corrupt probe event kind ", static_cast<int>(e.kind));
        }
    }
}

void
CoreModel::push(uint64_t word, uint64_t tag)
{
    StageRecord* record = pos_++;
    record->word = word;
    record->tag = tag;
    if (pos_ == end_) {
        publish();
    }
}

void
CoreModel::publish()
{
    if (!helpers_decided_) {
        // Streams shorter than one slot never get here, so short runs
        // never start threads.
        helpers_decided_ = true;
        helper_cores_ = CoreHold::ifFree(2);
        if (helper_cores_.count() == 2) {
            ran_on_helpers_ = true;
            for (uint32_t i = 1; i < kSlots; ++i) {
                ring_[i].records =
                    std::make_unique_for_overwrite<StageRecord[]>(
                        kSlotRecords);
            }
            functional_thread_ = std::thread([this] { functionalMain(); });
            timing_thread_ = std::thread([this] { timingMain(); });
        }
    }
    if (ran_on_helpers_) {
        handOff(kSlotRecords);
    } else {
        runInline(kSlotRecords);
    }
}

void
CoreModel::runInline(uint32_t count)
{
    StageRecord* records = ring_[fill_slot_].records.get();
    functionalStage(records, count);
    timingStage(records, count);
    pos_ = records;
}

void
CoreModel::handOff(uint32_t count)
{
    Slot& slot = ring_[fill_slot_];
    slot.count = count;
    setState(slot.state, kFilled);
    fill_slot_ = (fill_slot_ + 1) % kSlots;
    Slot& next = ring_[fill_slot_];
    awaitState(next.state, kFree);
    pos_ = next.records.get();
    end_ = pos_ + kSlotRecords;
}

void
CoreModel::drainPipeline()
{
    const auto pending =
        static_cast<uint32_t>(pos_ - ring_[fill_slot_].records.get());
    if (!ran_on_helpers_) {
        runInline(pending);
        return;
    }
    if (pending > 0) {
        handOff(pending);
    }
    stopHelpers();
}

void
CoreModel::stopHelpers()
{
    if (!functional_thread_.joinable()) {
        return;
    }
    // The fill slot is always Free here (handOff waited for it); the
    // stop slot passes through both stages behind every pending slot.
    Slot& slot = ring_[fill_slot_];
    slot.count = kStopSlot;
    setState(slot.state, kFilled);
    functional_thread_.join();
    timing_thread_.join();
    helper_cores_ = CoreHold();
}

void
CoreModel::functionalMain()
{
    for (uint32_t i = 0;; i = (i + 1) % kSlots) {
        Slot& slot = ring_[i];
        awaitState(slot.state, kFilled);
        const uint32_t count = slot.count;
        if (count != kStopSlot) {
            functionalStage(slot.records.get(), count);
        }
        setState(slot.state, kAnnotated);
        if (count == kStopSlot) {
            return;
        }
    }
}

void
CoreModel::timingMain()
{
    for (uint32_t i = 0;; i = (i + 1) % kSlots) {
        Slot& slot = ring_[i];
        awaitState(slot.state, kAnnotated);
        const uint32_t count = slot.count;
        if (count != kStopSlot) {
            timingStage(slot.records.get(), count);
        }
        setState(slot.state, kFree);
        if (count == kStopSlot) {
            return;
        }
    }
}

// ---- Functional stage: caches, iTLB, predictor, BTB -------------------------

CoreModel::SiteFetchPlan&
CoreModel::planFor(const trace::CodeSite& site, uint64_t address)
{
    if (site.id >= plans_.size()) {
        plans_.resize(site.id + 1);
    }
    SiteFetchPlan& plan = plans_[site.id];
    if (plan.address != address) {
        // First sighting, or a relayout pass moved the block.
        rebuildPlan(plan, site, address);
    }
    return plan;
}

void
CoreModel::rebuildPlan(SiteFetchPlan& plan, const trace::CodeSite& site,
                       uint64_t address)
{
    const uint32_t line_bytes = params_.l1i.line_bytes;
    const uint64_t first = address / line_bytes;
    const uint64_t last = (address + site.bytes - 1) / line_bytes;
    plan.address = address;
    plan.first_line = first;
    plan.page = address >> 12;
    plan.line_count = static_cast<uint32_t>(last - first + 1);
    plan.slots.resize(plan.line_count);
    for (uint32_t k = 0; k < plan.line_count; ++k) {
        // Seed every hint with way 0 of the line's own set: same-set by
        // construction, so touchIfResident()'s tag compare is sound from
        // the first use.
        plan.slots[k] = caches_.l1i().setBaseSlot(first + k);
    }
}

void
CoreModel::functionalStage(StageRecord* records, size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        StageRecord& r = records[i];
        const uint64_t tag = r.tag;
        if ((tag & (kBlockBit | kBranchBit)) == 0) {
            walkData(r);
            continue;
        }
        const auto& site =
            *reinterpret_cast<const trace::CodeSite*>(tag & ~kKindBits);
        if (order_attr_cur_ != nullptr) {
            order_attr_cur_ = &siteBucket(order_attr_sites_, site.id);
        }
        uint64_t outcome = 0;
        if ((tag & kBlockBit) != 0) {
            outcome = fetchBlock(site, r.word);
        }
        if ((tag & kBranchBit) != 0) {
            outcome |= predictBranch(r.word, (tag & kFlagBit) != 0);
        }
        r.word = outcome;
    }
}

[[gnu::always_inline]] inline uint64_t
CoreModel::fetchBlock(const trace::CodeSite& site, uint64_t address)
{
    // Fetch the block's cache lines through L1i and the iTLB, walking the
    // site's precomputed fetch plan. A line whose resident-way hint still
    // holds it takes the inline hit arm; anything else falls back to the
    // full access and refreshes the hint.
    SiteFetchPlan& plan = planFor(site, address);
    Cache& l1i = caches_.l1i();
    const uint32_t lines = plan.line_count;
    uint64_t misses = 0;
    int fetch_penalty = 0;
    uint32_t* slots = plan.slots.data();
    for (uint32_t k = 0; k < lines; ++k) {
        const uint64_t l = plan.first_line + k;
        if (l1i.touchIfResident(l, slots[k])) {
            continue; // L1i hit with exact hit-arm bookkeeping.
        }
        const AccessResult r = caches_.fetchLineAccess(l);
        slots[k] = l1i.mruSlot();
        if (r.l1_miss) {
            ++misses;
            fetch_penalty =
                std::max(fetch_penalty, r.latency - params_.latencies.l1);
        }
    }
    order_.l1i_accesses += lines;
    const bool itlb_miss = !itlb_.accessPage(plan.page);
    if (itlb_miss) {
        ++order_.itlb_misses;
        fetch_penalty += params_.latencies.itlb_miss;
    }
    if (order_attr_cur_ != nullptr) {
        ++order_attr_cur_->blocks;
        order_attr_cur_->l1i_accesses += lines;
        order_attr_cur_->l1i_misses += misses;
        order_attr_cur_->itlb_misses += itlb_miss ? 1 : 0;
    }
    return misses | (static_cast<uint64_t>(fetch_penalty) << 32);
}

[[gnu::always_inline]] inline uint64_t
CoreModel::predictBranch(uint64_t address, bool taken)
{
    // One devirtualizable call per branch instead of the predict() +
    // update() virtual pair; behaviour is identical by construction.
    const bool predicted = predictor_->predictAndUpdate(address, taken);
    uint64_t outcome = 0;
    bool btb_miss = false;
    if (predicted != taken) {
        outcome = kMispredictBit;
    } else if (taken) {
        // Correctly predicted taken: the BTB decides the redirect bubble.
        if (btb_.access(address)) {
            outcome = kBtbHitBit;
        } else {
            btb_miss = true;
            ++order_.btb_misses;
        }
    }
    if (order_attr_cur_ != nullptr) {
        ++order_attr_cur_->branches;
        order_attr_cur_->taken += taken ? 1 : 0;
        order_attr_cur_->branch_mispredicts += predicted != taken ? 1 : 0;
        order_attr_cur_->btb_misses += btb_miss ? 1 : 0;
    }
    return outcome;
}

[[gnu::always_inline]] inline void
CoreModel::walkData(StageRecord& record)
{
    // Line span via shifts: line sizes are asserted powers of two, and
    // unsigned divide/multiply by 2^k is exactly shift by k — this only
    // dodges the hardware divide the / form costs per event. Stores
    // write-allocate, so loads and stores walk alike.
    const uint64_t addr = record.word;
    const auto bytes = static_cast<uint32_t>(record.tag >> 32);
    const uint32_t shift = caches_.l1d().lineShift();
    const uint64_t first = addr >> shift;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) >> shift;
    int latency = params_.latencies.l1;
    uint64_t l1_misses = 0;
    uint64_t l2_misses = 0;
    uint64_t l3_misses = 0;
    for (uint64_t l = first; l <= last; ++l) {
        const AccessResult r = caches_.dataAccess(l << shift);
        l1_misses += r.l1_miss ? 1 : 0;
        l2_misses += r.l2_miss ? 1 : 0;
        l3_misses += r.l3_miss ? 1 : 0;
        latency = std::max(latency, r.latency);
    }
    const uint64_t lines = last - first + 1;
    order_.l1d_accesses += lines;
    if (order_attr_cur_ != nullptr) {
        if ((record.tag & kFlagBit) != 0) {
            ++order_attr_cur_->stores;
            order_attr_cur_->store_bytes += bytes;
        } else {
            ++order_attr_cur_->loads;
            order_attr_cur_->load_bytes += bytes;
        }
        order_attr_cur_->l1d_accesses += lines;
        order_attr_cur_->l1d_misses += l1_misses;
        order_attr_cur_->l2_misses += l2_misses;
        order_attr_cur_->l3_misses += l3_misses;
    }
    record.word = l1_misses | (l2_misses << 32);
    record.tag = (l3_misses << 32) | (static_cast<uint64_t>(latency) << 3)
                 | (record.tag & kKindBits);
}

// ---- Timing stage: dispatch, window, stall slots ----------------------------

void
CoreModel::timingStage(const StageRecord* records, size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        const StageRecord& r = records[i];
        const uint64_t tag = r.tag;
        if ((tag & (kBlockBit | kBranchBit)) == 0) {
            if ((tag & kFlagBit) != 0) {
                timeStore(r);
            } else {
                timeLoad(r);
            }
            continue;
        }
        const auto& site =
            *reinterpret_cast<const trace::CodeSite*>(tag & ~kKindBits);
        if (attr_cur_ != nullptr) {
            attr_cur_ = &siteBucket(attr_sites_, site.id);
        }
        if ((tag & kBlockBit) != 0) {
            timeBlock(site, r.word);
        }
        if ((tag & kBranchBit) != 0) {
            timeBranch(site, (tag & kFlagBit) != 0, r.word);
        }
    }
}

[[gnu::always_inline]] inline void
CoreModel::timeBlock(const trace::CodeSite& site, uint64_t outcome)
{
    // Frontend: the L1i misses count before the block dispatches (a phase
    // sample inside the block sees them); the fetch penalty delays the
    // frontend from the current cycle.
    stats_.l1i_misses += static_cast<uint32_t>(outcome);
    const uint64_t fetch_penalty = (outcome >> 32) & ((1ull << 30) - 1);
    if (fetch_penalty > 0) {
        const uint64_t ready = cur_cycle_ + fetch_penalty;
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::Frontend;
        }
    }

    // Backend: the block's ALU instructions complete one cycle after
    // dispatch and issue immediately — unless the block consumes
    // just-loaded data (BlockLoadDep), in which case its work dwells in
    // the reservation station until the feeding load returns. Batches
    // larger than a window structure flow through in chunks.
    const bool load_dep = site.kind == trace::SiteKind::BlockLoadDep;
    uint32_t remaining = site.instructions;
    const uint32_t max_chunk = static_cast<uint32_t>(
        std::min(params_.rob_size, params_.rs_size));
    while (remaining > 0) {
        const uint32_t chunk = std::min(remaining, max_chunk);
        resolveFrontend();
        ensureRobSpace(chunk);
        ensureRsSpace(chunk);
        uint64_t issue = cur_cycle_ + 1;
        if (load_dep && last_load_complete_ > issue) {
            issue = last_load_complete_;
        }
        robPush(issue, chunk, load_dep);
        // RS dwell is bounded (entries leave at issue; the scheduler does
        // not hold them for a full memory round trip).
        rsPush(std::min(issue, cur_cycle_ + 15), chunk, load_dep);
        dispatch(chunk);
        remaining -= chunk;
    }
}

[[gnu::always_inline]] inline void
CoreModel::timeBranch(const trace::CodeSite& site, bool taken,
                      uint64_t outcome)
{
    ++stats_.branches;
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);

    // The branch resolves when its inputs are ready; load-dependent
    // branches resolve only after the feeding load returns.
    const bool load_dep = site.kind == trace::SiteKind::BranchLoadDep;
    uint64_t resolve = cur_cycle_ + 1;
    if (load_dep) {
        resolve = std::max(resolve, last_load_complete_);
    }

    robPush(resolve, 1, false);
    rsPush(std::min(resolve, cur_cycle_ + 15), 1, load_dep);
    dispatch(1);

    if ((outcome & kMispredictBit) != 0) {
        ++stats_.branch_mispredicts;
        const uint64_t ready =
            resolve + static_cast<uint64_t>(params_.mispredict_penalty);
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::BadSpeculation;
        }
    } else if (taken) {
        // Correctly predicted taken: redirect bubble, larger on BTB miss.
        const int bubble = (outcome & kBtbHitBit) != 0
                               ? params_.taken_bubble
                               : params_.btb_miss_penalty;
        const uint64_t ready = cur_cycle_ + bubble;
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::Frontend;
        }
    }
}

[[gnu::always_inline]] inline void
CoreModel::timeLoad(const StageRecord& record)
{
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    stats_.l1d_misses += static_cast<uint32_t>(record.word);
    stats_.l2_misses += record.word >> 32;
    stats_.l3_misses += record.tag >> 32;
    const int latency =
        static_cast<int>((record.tag >> 3) & ((1u << 29) - 1));

    // Miss-status-holding registers bound memory-level parallelism: a
    // miss beyond the outstanding limit starts only when the oldest one
    // completes. mshr_head_ caches the oldest outstanding completion
    // (UINT64_MAX when empty), so the common no-expiry case skips the
    // pruning scan entirely; the queue itself is untouched until a head
    // actually expires, which pops the same entries the stepped loop
    // would.
    uint64_t complete = cur_cycle_ + latency;
    if (latency > params_.latencies.l1) {
        if (mshr_head_ <= cur_cycle_) {
            while (!mshr_.empty() && mshr_.front() <= cur_cycle_) {
                mshr_.pop_front();
            }
            mshr_head_ = mshr_.empty() ? UINT64_MAX : mshr_.front();
        }
        if (static_cast<int>(mshr_.size()) >= params_.mshr_entries) {
            complete = mshr_.front() + latency;
        }
        mshr_.push_back(complete);
        mshr_head_ = mshr_.front();
    }
    last_load_complete_ = complete;
    robPush(complete, 1, true);
    // Loads leave the reservation station at issue (address generation),
    // not at data return; only a bounded scheduler dwell is charged. The
    // in-order-retire ROB carries the full miss latency.
    rsPush(cur_cycle_ + std::min(latency, 15), 1, true);
    dispatch(1);
}

[[gnu::always_inline]] inline void
CoreModel::timeStore(const StageRecord& record)
{
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    ensureSbSpace(1);
    stats_.l1d_misses += static_cast<uint32_t>(record.word);
    stats_.l2_misses += record.word >> 32;
    stats_.l3_misses += record.tag >> 32;
    const int latency =
        static_cast<int>((record.tag >> 3) & ((1u << 29) - 1));

    // Stores retire promptly but occupy the store buffer until the line
    // is written; a full SB blocks dispatch (space reserved above).
    sbPush(cur_cycle_ + latency, 1);

    robPush(cur_cycle_ + 1, 1, false);
    rsPush(cur_cycle_ + 1, 1, false);
    dispatch(1);
}

// ---- Reference stepping ----------------------------------------------------

void
CoreModel::referenceOnBlock(const trace::CodeSite& site)
{
    // Pre-fast-forward implementation: recompute the line span per event
    // and walk every line through the full cache access path.
    const uint32_t line = params_.l1i.line_bytes;
    const uint64_t first = site.address / line;
    const uint64_t last = (site.address + site.bytes - 1) / line;
    int fetch_penalty = 0;
    for (uint64_t l = first; l <= last; ++l) {
        ++stats_.l1i_accesses;
        const AccessResult r = caches_.fetchAccess(l * line);
        if (attr_cur_ != nullptr) {
            ++attr_cur_->l1i_accesses;
        }
        if (r.l1_miss) {
            ++stats_.l1i_misses;
            if (attr_cur_ != nullptr) {
                ++attr_cur_->l1i_misses;
            }
            fetch_penalty =
                std::max(fetch_penalty,
                         r.latency - params_.latencies.l1);
        }
    }
    if (!itlb_.access(site.address)) {
        ++stats_.itlb_misses;
        if (attr_cur_ != nullptr) {
            ++attr_cur_->itlb_misses;
        }
        fetch_penalty += params_.latencies.itlb_miss;
    }
    if (fetch_penalty > 0) {
        const uint64_t ready = cur_cycle_ + fetch_penalty;
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::Frontend;
        }
    }

    const bool load_dep = site.kind == trace::SiteKind::BlockLoadDep;
    uint32_t remaining = site.instructions;
    const uint32_t max_chunk = static_cast<uint32_t>(
        std::min(params_.rob_size, params_.rs_size));
    while (remaining > 0) {
        const uint32_t chunk = std::min(remaining, max_chunk);
        resolveFrontend();
        ensureRobSpace(chunk);
        ensureRsSpace(chunk);
        uint64_t issue = cur_cycle_ + 1;
        if (load_dep && last_load_complete_ > issue) {
            issue = last_load_complete_;
        }
        robPush(issue, chunk, load_dep);
        rsPush(std::min(issue, cur_cycle_ + 15), chunk, load_dep);
        dispatch(chunk);
        remaining -= chunk;
    }
}

void
CoreModel::referenceOnBranch(const trace::CodeSite& site, bool taken)
{
    // Pre-fast-forward implementation: separate predict() and update()
    // virtual calls.
    ++stats_.branches;
    const bool predicted = predictor_->predict(site.address);
    predictor_->update(site.address, taken);

    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);

    uint64_t resolve = cur_cycle_ + 1;
    if (site.kind == trace::SiteKind::BranchLoadDep) {
        resolve = std::max(resolve, last_load_complete_);
    }

    robPush(resolve, 1, false);
    rsPush(std::min(resolve, cur_cycle_ + 15), 1,
           site.kind == trace::SiteKind::BranchLoadDep);
    dispatch(1);

    if (predicted != taken) {
        ++stats_.branch_mispredicts;
        if (attr_cur_ != nullptr) {
            ++attr_cur_->branch_mispredicts;
        }
        const uint64_t ready =
            resolve + static_cast<uint64_t>(params_.mispredict_penalty);
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::BadSpeculation;
        }
    } else if (taken) {
        const bool btb_hit = btb_.access(site.address);
        if (!btb_hit) {
            ++stats_.btb_misses;
            if (attr_cur_ != nullptr) {
                ++attr_cur_->btb_misses;
            }
        }
        const int bubble =
            btb_hit ? params_.taken_bubble : params_.btb_miss_penalty;
        const uint64_t ready = cur_cycle_ + bubble;
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::Frontend;
        }
    }
}

void
CoreModel::referenceOnLoad(uint64_t addr, uint32_t bytes)
{
    // Pre-fast-forward implementation: unconditional MSHR pruning scan.
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    const uint32_t line = params_.l1d.line_bytes;
    const uint64_t first = addr / line;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
    int latency = params_.latencies.l1;
    for (uint64_t l = first; l <= last; ++l) {
        ++stats_.l1d_accesses;
        const AccessResult r = caches_.dataAccess(l * line);
        if (attr_cur_ != nullptr) {
            ++attr_cur_->l1d_accesses;
            attr_cur_->l1d_misses += r.l1_miss ? 1 : 0;
            attr_cur_->l2_misses += r.l2_miss ? 1 : 0;
            attr_cur_->l3_misses += r.l3_miss ? 1 : 0;
        }
        if (r.l1_miss) {
            ++stats_.l1d_misses;
        }
        if (r.l2_miss) {
            ++stats_.l2_misses;
        }
        if (r.l3_miss) {
            ++stats_.l3_misses;
        }
        latency = std::max(latency, r.latency);
    }

    uint64_t complete = cur_cycle_ + latency;
    if (latency > params_.latencies.l1) {
        while (!mshr_.empty() && mshr_.front() <= cur_cycle_) {
            mshr_.pop_front();
        }
        if (static_cast<int>(mshr_.size()) >= params_.mshr_entries) {
            complete = mshr_.front() + latency;
        }
        mshr_.push_back(complete);
    }
    last_load_complete_ = complete;
    robPush(complete, 1, true);
    rsPush(cur_cycle_ + std::min(latency, 15), 1, true);
    dispatch(1);
}

void
CoreModel::referenceOnStore(uint64_t addr, uint32_t bytes)
{
    // Pre-fast-forward implementation: division-based line math and the
    // store-buffer push open-coded (pre-sbPush).
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    ensureSbSpace(1);
    const uint32_t line = params_.l1d.line_bytes;
    const uint64_t first = addr / line;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
    int latency = params_.latencies.l1;
    for (uint64_t l = first; l <= last; ++l) {
        ++stats_.l1d_accesses;
        const AccessResult r = caches_.dataAccess(l * line); // write-alloc
        if (attr_cur_ != nullptr) {
            ++attr_cur_->l1d_accesses;
            attr_cur_->l1d_misses += r.l1_miss ? 1 : 0;
            attr_cur_->l2_misses += r.l2_miss ? 1 : 0;
            attr_cur_->l3_misses += r.l3_miss ? 1 : 0;
        }
        if (r.l1_miss) {
            ++stats_.l1d_misses;
        }
        if (r.l2_miss) {
            ++stats_.l2_misses;
        }
        if (r.l3_miss) {
            ++stats_.l3_misses;
        }
        latency = std::max(latency, r.latency);
    }

    const uint64_t drain_time = cur_cycle_ + latency;
    const uint64_t drain_monotone = std::max(drain_time, sb_last_drain_);
    sb_last_drain_ = drain_monotone;
    if (!sb_.empty() && sb_.back().time == drain_monotone) {
        sb_.back().count += 1;
    } else {
        sb_.push_back({drain_monotone, 1, true});
    }
    ++sb_count_;

    robPush(cur_cycle_ + 1, 1, false);
    rsPush(cur_cycle_ + 1, 1, false);
    dispatch(1);
}

CoreStats
CoreModel::finish()
{
    VT_ASSERT(!finished_, "finish() called twice");
    finished_ = true;
    drainPipeline();

    // Let the machine drain: run the clock to the last retirement.
    uint64_t end = std::max(cur_cycle_, fetch_ready_);
    if (!rob_.empty()) {
        end = std::max(end, rob_.back().time);
    }
    if (!sb_.empty()) {
        end = std::max(end, sb_.back().time);
    }
    if (slots_in_cycle_ > 0) {
        // Fill the partial cycle's leftover slots as backend-core.
        stats_.slots_backend_core += params_.width - slots_in_cycle_;
        if (attr_cur_ != nullptr) {
            attr_cur_->slots_backend_core += params_.width - slots_in_cycle_;
            ++attr_cur_->cycles;
        }
        ++cur_cycle_;
        slots_in_cycle_ = 0;
    }
    advanceTo(end, StallCause::BackendMemory);

    stats_.cycles = cur_cycle_;
    stats_.slots_total =
        stats_.cycles * static_cast<uint64_t>(params_.width);
    if (next_phase_ != UINT64_MAX
        && (phase_.empty() || phase_.back().instructions != stats_.instructions
            || phase_.back().cycles != stats_.cycles)) {
        // Close the time-series with the post-drain totals.
        capturePhase();
    }

    // Fold in the functional stage's order-only counters and per-site
    // tallies (none is part of a PhaseSample; both stay zero under
    // reference stepping, which charges stats_ and attr_sites_ itself).
    stats_.l1i_accesses += order_.l1i_accesses;
    stats_.l1d_accesses += order_.l1d_accesses;
    stats_.itlb_misses += order_.itlb_misses;
    stats_.btb_misses += order_.btb_misses;
    if (params_.attribute_sites) {
        if (attr_sites_.size() < order_attr_sites_.size()) {
            attr_sites_.resize(order_attr_sites_.size());
        }
        for (size_t i = 0; i < order_attr_sites_.size(); ++i) {
            attr_sites_[i].add(order_attr_sites_[i]);
        }
        attr_unattributed_.add(order_attr_unattributed_);
        attr_cur_ = nullptr;
    }
    return stats_;
}

} // namespace vtrans::uarch
