#ifndef VTRANS_UARCH_CORE_H_
#define VTRANS_UARCH_CORE_H_

/**
 * @file
 * The out-of-order core timing model: an interval-style simulator (the
 * fidelity class of Sniper, §III-B5) that consumes the probe event stream
 * and produces cycles, Top-down pipeline-slot breakdown (Yasin's method,
 * as VTune reports it, §III-B1), and the fine-grained event rates Linux
 * perf would report (MPKI, resource stalls; §III-B2).
 *
 * Model summary: a width-W dispatch front consumes one slot per
 * instruction; empty slots are attributed to the stall that caused them —
 * frontend (L1i/iTLB misses, taken-branch redirects), bad speculation
 * (mispredict flush bubbles), or backend (ROB/RS/SB full, split into
 * memory-bound and core-bound by the blocking instruction). Loads get
 * their latency from a functional cache hierarchy; retirement is in-order
 * via monotone completion times.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cores.h"
#include "trace/probe.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/ringbuf.h"
#include "uarch/tlb.h"

namespace vtrans::uarch {

/** Full configuration of a simulated core (a Table IV row). */
struct CoreParams
{
    std::string name = "baseline";

    // Pipeline.
    int width = 4;               ///< Dispatch/issue width (slots/cycle).
    int rob_size = 128;          ///< Reorder buffer entries.
    int rs_size = 36;            ///< Reservation station entries.
    int sb_size = 32;            ///< Store buffer entries.
    bool issue_at_dispatch = false; ///< be_op2: RS dwell removed.
    int mshr_entries = 10;       ///< Max outstanding L1d misses (MLP cap).
    int mispredict_penalty = 12; ///< Refill cycles after branch resolve.
    int btb_miss_penalty = 3;    ///< Redirect bubble on BTB miss.
    int taken_bubble = 1;        ///< Redirect bubble on predicted-taken.
    double freq_ghz = 3.5;       ///< §III: 3.5 GHz Xeon E3.

    // Memory system.
    CacheParams l1d{32 * 1024, 8, 64};
    CacheParams l1i{32 * 1024, 8, 64};
    CacheParams l2{256 * 1024, 8, 64};
    CacheParams l3{8192 * 1024, 16, 64};
    uint32_t l4_size = 0;        ///< 0 = no L4 (baseline).
    uint32_t itlb_entries = 128;
    LatencyParams latencies;

    // Branch prediction.
    std::string predictor = "pentium_m";

    // Observability (pure accounting; never changes timing, event
    // handling order, or any CoreStats value).
    bool attribute_sites = false; ///< Charge events, cycles, slots and
                                  ///< misses to the current CodeSite.
    uint64_t phase_window = 0;    ///< Cumulative-counter snapshot every N
                                  ///< retired instructions (0 = off).

    /** Test-only: step the model one retired instruction at a time and
     *  walk every fetch line through the full cache path, as the model
     *  did before the event-driven fast-forward (DESIGN.md §13). The
     *  differential suite and the microbench's model-sink gate run the
     *  same stream through both paths and require bit-identical
     *  CoreStats/SiteUarch; production code never sets this. */
    bool reference_stepping = false;
};

/**
 * Per-site tallies, filled only when CoreParams::attribute_sites is on.
 * The event tallies (blocks through store_bytes) count the probe stream
 * as it reaches the model; loads and stores carry no site, so they go to
 * the site of the last block or branch, as a sampling profiler charges
 * memory traffic to the enclosing function. Every µarch charge mirrors
 * the exact CoreStats increment it shadows, so summing any field across
 * all sites plus the unattributed bucket reproduces the corresponding
 * CoreStats counter bit for bit (slots_total has no per-site mirror; it
 * is cycles * width). Per-site instructions are not tallied: they are
 * blocks * site.instructions + branches + loads + stores.
 */
struct SiteUarch
{
    uint64_t blocks = 0;      ///< Block executions (incl. branch blocks).
    uint64_t taken = 0;       ///< Branches taken (after layout polarity).
    uint64_t loads = 0;       ///< Data loads.
    uint64_t stores = 0;      ///< Data stores.
    uint64_t load_bytes = 0;  ///< Bytes loaded.
    uint64_t store_bytes = 0; ///< Bytes stored.
    uint64_t cycles = 0;
    uint64_t slots_retiring = 0;
    uint64_t slots_frontend = 0;
    uint64_t slots_bad_spec = 0;
    uint64_t slots_backend_memory = 0;
    uint64_t slots_backend_core = 0;
    uint64_t branches = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t l1d_accesses = 0;
    uint64_t l1d_misses = 0;
    uint64_t l2_misses = 0;
    uint64_t l3_misses = 0;
    uint64_t l1i_accesses = 0;
    uint64_t l1i_misses = 0;
    uint64_t itlb_misses = 0;
    uint64_t btb_misses = 0;

    void add(const SiteUarch& other);
};

/** One cumulative counter snapshot of the phase time-series, taken every
 *  CoreParams::phase_window retired instructions (plus a final one at
 *  finish()). Consumers difference adjacent samples for window rates. */
struct PhaseSample
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t slots_retiring = 0;
    uint64_t slots_frontend = 0;
    uint64_t slots_bad_spec = 0;
    uint64_t slots_backend_memory = 0;
    uint64_t slots_backend_core = 0;
    uint64_t branches = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t l1d_misses = 0;
    uint64_t l2_misses = 0;
    uint64_t l3_misses = 0;
    uint64_t l1i_misses = 0;
};

/** Top-down pipeline-slot breakdown (fractions sum to 1). */
struct TopDown
{
    double retiring = 0.0;
    double frontend = 0.0;
    double bad_speculation = 0.0;
    double backend_memory = 0.0;
    double backend_core = 0.0;

    double backend() const { return backend_memory + backend_core; }
};

/** Raw and derived counters of one simulation. */
struct CoreStats
{
    // Raw counters.
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t branches = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t l1d_accesses = 0;
    uint64_t l1d_misses = 0;
    uint64_t l2_misses = 0;   ///< Data-side L2 misses.
    uint64_t l3_misses = 0;   ///< Data-side L3 misses.
    uint64_t l1i_accesses = 0;
    uint64_t l1i_misses = 0;
    uint64_t itlb_misses = 0;
    uint64_t btb_misses = 0;

    // Stall slots by cause (units: dispatch slots).
    uint64_t slots_total = 0;
    uint64_t slots_retiring = 0;
    uint64_t slots_frontend = 0;
    uint64_t slots_bad_spec = 0;
    uint64_t slots_backend_memory = 0;
    uint64_t slots_backend_core = 0;

    // Resource-specific stall slots (subset of backend slots).
    uint64_t slots_rob_stall = 0;
    uint64_t slots_rs_stall = 0;
    uint64_t slots_sb_stall = 0;

    int width = 4;
    double freq_ghz = 3.5;

    // Derived metrics.
    double ipc() const;
    double seconds() const;
    double branchMpki() const;
    double l1dMpki() const;
    double l2Mpki() const;
    double l3Mpki() const;
    double l1iMpki() const;
    TopDown topdown() const;
    /** Resource stall cycles per kilo-instruction. */
    double robStallsPki() const;
    double rsStallsPki() const;
    double sbStallsPki() const;
    double anyResourceStallsPki() const;
};

/**
 * The core model; attach with trace::setSink(&model), run the workload,
 * then call finish().
 *
 * The model runs as two stages over a ring of compact event records
 * (DESIGN.md §13, "Pipelined stages"). The functional stage owns the
 * caches, iTLB, branch predictor and BTB, whose outcomes depend only on
 * the order of events; the timing stage owns dispatch, the window and
 * every time-based counter, which depend only on those outcomes. When
 * two cores of the process budget are free (common/cores.h) each stage
 * runs on its own helper thread; otherwise the probe-emitting thread
 * runs both over each full slot. Either way the results are
 * bit-identical. Accessors other than params() are valid only after
 * finish().
 */
class CoreModel : public trace::ProbeSink
{
  public:
    explicit CoreModel(const CoreParams& params);

    /** Joins the helper threads if finish() never ran. */
    ~CoreModel() override;

    CoreModel(const CoreModel&) = delete;
    CoreModel& operator=(const CoreModel&) = delete;

    // ProbeSink interface: each call appends one record to the ring.
    void onBlock(const trace::CodeSite& site) override;
    void onBranch(const trace::CodeSite& site, bool taken) override;
    void onLoad(uint64_t addr, uint32_t bytes) override;
    void onStore(uint64_t addr, uint32_t bytes) override;

    /** Consumes a batch directly (no per-event virtual calls): each
     *  record becomes one ring record, a fused block + branch included,
     *  so the resulting CoreStats are bit-identical to replaying the
     *  records through the calls above. */
    void onBatch(const trace::ProbeEvent* events, size_t count) override;

    /** Drains the ring, joins the helper threads and returns the
     *  statistics. */
    CoreStats finish();

    const CoreParams& params() const { return params_; }

    /** True if the stages ran on helper threads rather than inline. */
    bool ranOnHelpers() const { return ran_on_helpers_; }

    /** Per-site attribution, indexed by trace::CodeSite::id (shorter than
     *  the registry if trailing sites saw no events). Empty when
     *  CoreParams::attribute_sites is off. */
    const std::vector<SiteUarch>& attributionPerSite() const
    {
        return attr_sites_;
    }

    /** Charges that predate the first block probe (attribution on). */
    const SiteUarch& attributionUnattributed() const
    {
        return attr_unattributed_;
    }

    bool attributionEnabled() const { return params_.attribute_sites; }

    /** Cumulative snapshots every CoreParams::phase_window retired
     *  instructions; finish() appends a final end-of-run sample. Empty
     *  when phase_window is 0. */
    const std::vector<PhaseSample>& phaseSamples() const { return phase_; }

  private:
    enum class StallCause : uint8_t
    {
        Frontend,
        BadSpeculation,
        BackendMemory,
        BackendCore,
    };

    /**
     * One probe event in the stage ring: 16 bytes, written raw by the
     * producer, annotated in place by the functional stage and consumed
     * by the timing stage. The low three bits of `tag` give the kind:
     * kBlockBit and/or kBranchBit mark a site record, neither marks a
     * memory record; kFlagBit is the branch direction (site records) or
     * "store" (memory records).
     *
     *   site, raw:         word = layout address,
     *                      tag  = CodeSite* | kind bits
     *   site, annotated:   word = L1i misses (bits 0-31)
     *                           | fetch penalty (bits 32-61)
     *                           | kMispredictBit | kBtbHitBit
     *   memory, raw:       word = address, tag = bytes << 32 | kind bits
     *   memory, annotated: word = L1 misses | L2 misses << 32,
     *                      tag  = L3 misses << 32 | latency << 3
     *                           | kind bits
     *
     * The producer copies the site address into the record, so a layout
     * change never races a stage; the stages read only the immutable
     * fields of the CodeSite (id, bytes, instructions, kind).
     */
    struct StageRecord
    {
        uint64_t word;
        uint64_t tag;
    };

    static constexpr uint64_t kBlockBit = 1;
    static constexpr uint64_t kBranchBit = 2;
    static constexpr uint64_t kFlagBit = 4;
    static constexpr uint64_t kKindBits = 7;
    static constexpr uint64_t kMispredictBit = 1ull << 62;
    static constexpr uint64_t kBtbHitBit = 1ull << 63;

    /** Ring geometry: 4 slots x 2048 records = 128 KiB per model with
     *  helpers. Inline, only slot 0 is allocated (32 KiB). Each slot's
     *  records are a separate allocation, below glibc's mmap threshold:
     *  one 128 KiB block per model raised the peak RSS of a cache-heavy
     *  farm run by half, through the threshold's dynamic adjustment. */
    static constexpr uint32_t kSlots = 4;
    static constexpr uint32_t kSlotRecords = 2048;
    /** Slot count that tells the helper threads to exit. */
    static constexpr uint32_t kStopSlot = UINT32_MAX;

    /** Slot states: the producer fills a Free slot, the functional stage
     *  annotates a Filled one, the timing stage consumes an Annotated
     *  one and frees it. Each transition is a release store observed by
     *  an acquire load. */
    enum SlotState : uint32_t
    {
        kFree = 0,
        kFilled = 1,
        kAnnotated = 2,
    };

    struct Slot
    {
        alignas(64) std::atomic<uint32_t> state{kFree};
        uint32_t count = 0; ///< Records in this slot (or kStopSlot).
        std::unique_ptr<StageRecord[]> records; ///< kSlotRecords each.
    };

    /**
     * Precomputed instruction-fetch geometry of one code site. The
     * block's L1i line span and iTLB page are pure functions of the
     * site's (immutable) size and its layout address, so they are
     * computed once per site — and rebuilt only if a relayout pass
     * rewrites the address (`address` is the validity key). `slots`
     * additionally remembers, per line, the cache way the line was last
     * resident in; Cache::touchIfResident() re-validates the hint on
     * every use, so a stale slot costs one failed tag compare, never a
     * wrong result.
     */
    struct SiteFetchPlan
    {
        /// No site ever lands at this address (layout starts at
        /// SiteRegistry::kTextBase and grows).
        static constexpr uint64_t kNoAddress = UINT64_MAX;

        uint64_t address = kNoAddress; ///< Site address at build time.
        uint64_t first_line = 0;       ///< First L1i line index.
        uint64_t page = 0;             ///< iTLB page (address >> 12).
        uint32_t line_count = 0;       ///< Lines spanned by the block.
        std::vector<uint32_t> slots;   ///< Resident-way hint per line.
    };

    /** The order-only CoreStats counters (none is part of a
     *  PhaseSample), charged by the functional stage and folded into
     *  stats_ at finish(). */
    struct OrderCounters
    {
        uint64_t l1i_accesses = 0;
        uint64_t l1d_accesses = 0;
        uint64_t itlb_misses = 0;
        uint64_t btb_misses = 0;
    };

    // ---- Producer (the probe-emitting thread) ----

    /** Appends one raw record; publishes the slot when it fills. */
    void push(uint64_t word, uint64_t tag);

    /** Hands the full slot on: inline, runs both stages over it; with
     *  helpers, passes it to the functional stage and waits for the next
     *  slot to come free. The first full slot decides between the two. */
    void publish();

    /** Marks the current slot Filled with `count` records and moves to
     *  the next one once it is Free (helpers only). */
    void handOff(uint32_t count);

    /** Runs both stages over the fill slot's first `count` records on
     *  this thread (no helpers). */
    void runInline(uint32_t count);

    /** Runs or hands off the partial slot and joins the helpers. */
    void drainPipeline();

    /** Sends the stop slot and joins the helpers (no-op without). */
    void stopHelpers();

    /** Helper-thread loops: one stage over the slots in ring order. */
    void functionalMain();
    void timingMain();

    // ---- Functional stage ----

    /** Annotates `count` raw records in place (see StageRecord). */
    void functionalStage(StageRecord* records, size_t count);

    /** L1i walk and iTLB lookup of one block; returns its annotation. */
    uint64_t fetchBlock(const trace::CodeSite& site, uint64_t address);

    /** Predictor update (and the BTB probe of a correctly predicted
     *  taken branch); returns the branch's annotation bits. */
    uint64_t predictBranch(uint64_t address, bool taken);

    /** L1d -> L4 walk of one load or store, annotated in place. */
    void walkData(StageRecord& record);

    /** The fetch plan for `site` at `address` (built on demand). */
    SiteFetchPlan& planFor(const trace::CodeSite& site, uint64_t address);
    void rebuildPlan(SiteFetchPlan& plan, const trace::CodeSite& site,
                     uint64_t address);

    // ---- Timing stage ----

    /** Consumes `count` annotated records in order. */
    void timingStage(const StageRecord* records, size_t count);

    /** Frontend penalty and backend dispatch of one block. */
    void timeBlock(const trace::CodeSite& site, uint64_t outcome);

    /** Dispatch and redirect of one branch. */
    void timeBranch(const trace::CodeSite& site, bool taken,
                    uint64_t outcome);

    /** Dispatch of one load or store. */
    void timeLoad(const StageRecord& record);
    void timeStore(const StageRecord& record);

    /** Advances dispatch to `target_cycle`, attributing empty slots. */
    void advanceTo(uint64_t target_cycle, StallCause cause);

    /** Dispatches `count` retiring instructions (handles cycle rollover
     *  and frontend-availability stalls). Event-driven: the whole span
     *  advances in closed form — see DESIGN.md §13 for the argument
     *  that this is bit-exact vs the stepped reference path. */
    void dispatch(uint32_t count);

    /** Stalls dispatch until the frontend has instructions available. */
    void resolveFrontend();

    /** Stalls dispatch until the window has room for `count` entries. */
    void ensureRobSpace(uint32_t count);
    void ensureRsSpace(uint32_t count);
    void ensureSbSpace(uint32_t count);

    /** Pushes `count` instructions completing at `complete` into the ROB
     *  (space must have been ensured). */
    void robPush(uint64_t complete, uint32_t count, bool is_mem);

    /** Pushes an RS entry freed at `free` (space must have been ensured). */
    void rsPush(uint64_t free, uint32_t count, bool is_mem);

    /** Pushes `count` store-buffer entries draining at `drain_time`
     *  (space must have been ensured; completion times made monotone). */
    void sbPush(uint64_t drain_time, uint32_t count);

    /** Frees entries whose time has passed. */
    void drain();

    /** Records a cumulative PhaseSample and arms the next window. */
    void capturePhase();

    // ---- Reference stepping (sequential, on the calling thread) ----

    /** The pre-fast-forward implementations, retained verbatim for the
     *  differential suite (CoreParams::reference_stepping). */
    void referenceDispatch(uint32_t count);
    void referenceOnBlock(const trace::CodeSite& site);
    void referenceOnBranch(const trace::CodeSite& site, bool taken);
    void referenceOnLoad(uint64_t addr, uint32_t bytes);
    void referenceOnStore(uint64_t addr, uint32_t bytes);

    uint64_t now() const { return cur_cycle_; }

    CoreParams params_;

    /** CoreParams::reference_stepping, hoisted (one predictable branch
     *  at the top of each event handler selects the retained path). */
    bool reference_stepping_ = false;
    bool finished_ = false;

    // Functional-stage state. Reference stepping uses the structures
    // directly on the calling thread and leaves the counters at zero.
    alignas(64) CacheHierarchy caches_;
    Tlb itlb_;
    std::unique_ptr<BranchPredictor> predictor_;
    Btb btb_;

    /** Per-site fetch plans, indexed by trace::CodeSite::id (grown on
     *  demand like attr_sites_). */
    std::vector<SiteFetchPlan> plans_;

    OrderCounters order_;

    // The order-only per-site tallies (event counts, branch and cache
    // outcomes), merged into attr_sites_ at finish(). order_attr_cur_
    // follows the same rules as attr_cur_ below.
    std::vector<SiteUarch> order_attr_sites_;
    SiteUarch order_attr_unattributed_;
    SiteUarch* order_attr_cur_ = nullptr;

    // Timing-stage state.
    struct WindowEntry
    {
        uint64_t time;   ///< Retire/issue/drain cycle.
        uint32_t count;  ///< Instructions coalesced into this entry.
        bool is_mem;     ///< Blocking on memory (stall attribution).
    };

    // Dispatch state.
    alignas(64) uint64_t cur_cycle_ = 0;
    uint32_t slots_in_cycle_ = 0;

    // Frontend availability.
    uint64_t fetch_ready_ = 0;
    StallCause fetch_reason_ = StallCause::Frontend;

    // Window occupancy. Ring buffers instead of deques: coalescing keeps
    // the entry count far below the modelled structure size, so in steady
    // state these never allocate (see uarch/ringbuf.h).
    RingBuffer<WindowEntry> rob_;
    RingBuffer<WindowEntry> rs_;
    RingBuffer<WindowEntry> sb_;
    uint64_t rob_count_ = 0;
    uint64_t rs_count_ = 0;
    uint64_t sb_count_ = 0;
    uint64_t rob_last_complete_ = 0;
    uint64_t rs_last_free_ = 0;
    uint64_t sb_last_drain_ = 0;

    uint64_t last_load_complete_ = 0;
    RingBuffer<uint64_t> mshr_; ///< Completion times of in-flight misses.

    /** mshr_.front() (UINT64_MAX when empty), cached so a load skips the
     *  head-pruning loop entirely while the oldest miss is still in the
     *  future — the common case on a streaming miss train. */
    uint64_t mshr_head_ = UINT64_MAX;

    CoreStats stats_;

    // Per-site attribution (CoreParams::attribute_sites): the time-based
    // charges here, the order-only ones in order_attr_sites_. attr_cur_
    // is null when attribution is off — a single predictable branch
    // guards every mirrored charge — and otherwise always points at a
    // live bucket (initially the unattributed one). It is refreshed on
    // every site record, the only records that can grow attr_sites_, so
    // it never dangles across intervening loads/stores.
    std::vector<SiteUarch> attr_sites_;
    SiteUarch attr_unattributed_;
    SiteUarch* attr_cur_ = nullptr;

    // Phase time-series (CoreParams::phase_window). next_phase_ stays at
    // UINT64_MAX when sampling is off, so the hot dispatch loop pays one
    // never-taken compare per instruction.
    std::vector<PhaseSample> phase_;
    uint64_t next_phase_ = UINT64_MAX;

    // Producer state and the ring. Inline, only slot 0 has storage; the
    // other slots get theirs when the helpers start.
    Slot ring_[kSlots];
    alignas(64) StageRecord* pos_ = nullptr; ///< Next free record of the
                                             ///< fill slot.
    StageRecord* end_ = nullptr; ///< End of the fill slot.
    uint32_t fill_slot_ = 0;
    bool helpers_decided_ = false;
    bool ran_on_helpers_ = false;
    CoreHold helper_cores_;
    std::thread functional_thread_;
    std::thread timing_thread_;
};

/** Runs a callable under this core model and returns its stats. The model
 *  attaches with the default batch capacity; detaching delivers the
 *  pending batch before finish() reads the state. */
template <typename Workload>
CoreStats
simulate(const CoreParams& params, Workload&& workload)
{
    CoreModel model(params);
    trace::setSink(&model);
    workload();
    trace::setSink(nullptr);
    return model.finish();
}

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_CORE_H_
