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
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cores.h"
#include "trace/probe.h"
#include "uarch/cache.h"

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

/** `events` per thousand `instructions` (0 when no instruction retired);
 *  every MPKI of CoreStats, obs::SiteCounters and the phase series. */
double perKilo(uint64_t events, uint64_t instructions);

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
    double branchMpki() const
    {
        return perKilo(branch_mispredicts, instructions);
    }
    double l1dMpki() const { return perKilo(l1d_misses, instructions); }
    double l2Mpki() const { return perKilo(l2_misses, instructions); }
    double l3Mpki() const { return perKilo(l3_misses, instructions); }
    double l1iMpki() const { return perKilo(l1i_misses, instructions); }
    TopDown topdown() const;
    /** Resource stall cycles per kilo-instruction. */
    double robStallsPki() const;
    double rsStallsPki() const;
    double sbStallsPki() const;
    double anyResourceStallsPki() const;
};

/** One raw counter of `Stats`: its JSON name and its member. Every list
 *  of a stats struct's counters (accumulating, hashing, writing, reading,
 *  comparing) iterates one table of these. */
template <typename Stats>
struct Counter
{
    const char* name;
    uint64_t Stats::*member;
};

/** CoreStats's raw counters in declaration order, the order
 *  farm::fingerprint hashes them. */
inline constexpr Counter<CoreStats> kCoreStatsCounters[] = {
    {"instructions", &CoreStats::instructions},
    {"cycles", &CoreStats::cycles},
    {"branches", &CoreStats::branches},
    {"branch_mispredicts", &CoreStats::branch_mispredicts},
    {"l1d_accesses", &CoreStats::l1d_accesses},
    {"l1d_misses", &CoreStats::l1d_misses},
    {"l2_misses", &CoreStats::l2_misses},
    {"l3_misses", &CoreStats::l3_misses},
    {"l1i_accesses", &CoreStats::l1i_accesses},
    {"l1i_misses", &CoreStats::l1i_misses},
    {"itlb_misses", &CoreStats::itlb_misses},
    {"btb_misses", &CoreStats::btb_misses},
    {"slots_total", &CoreStats::slots_total},
    {"slots_retiring", &CoreStats::slots_retiring},
    {"slots_frontend", &CoreStats::slots_frontend},
    {"slots_bad_spec", &CoreStats::slots_bad_spec},
    {"slots_backend_memory", &CoreStats::slots_backend_memory},
    {"slots_backend_core", &CoreStats::slots_backend_core},
    {"slots_rob_stall", &CoreStats::slots_rob_stall},
    {"slots_rs_stall", &CoreStats::slots_rs_stall},
    {"slots_sb_stall", &CoreStats::slots_sb_stall},
};
static_assert(offsetof(CoreStats, width)
                  == std::size(kCoreStatsCounters) * sizeof(uint64_t),
              "every raw CoreStats counter has a kCoreStatsCounters row");

/** A PhaseSample counter and the CoreStats counter it snapshots. */
struct PhaseCounter
{
    const char* name;
    uint64_t PhaseSample::*member;
    uint64_t CoreStats::*source;
};

/** PhaseSample's counters in declaration order. A sample copies each
 *  from its CoreStats source, except `cycles`: CoreStats::cycles is set
 *  at finish(), so a sample taken mid-run reads the timing stage's
 *  current cycle instead. */
inline constexpr PhaseCounter kPhaseSampleCounters[] = {
    {"instructions", &PhaseSample::instructions, &CoreStats::instructions},
    {"cycles", &PhaseSample::cycles, &CoreStats::cycles},
    {"slots_retiring", &PhaseSample::slots_retiring,
     &CoreStats::slots_retiring},
    {"slots_frontend", &PhaseSample::slots_frontend,
     &CoreStats::slots_frontend},
    {"slots_bad_spec", &PhaseSample::slots_bad_spec,
     &CoreStats::slots_bad_spec},
    {"slots_backend_memory", &PhaseSample::slots_backend_memory,
     &CoreStats::slots_backend_memory},
    {"slots_backend_core", &PhaseSample::slots_backend_core,
     &CoreStats::slots_backend_core},
    {"branches", &PhaseSample::branches, &CoreStats::branches},
    {"branch_mispredicts", &PhaseSample::branch_mispredicts,
     &CoreStats::branch_mispredicts},
    {"l1d_misses", &PhaseSample::l1d_misses, &CoreStats::l1d_misses},
    {"l2_misses", &PhaseSample::l2_misses, &CoreStats::l2_misses},
    {"l3_misses", &PhaseSample::l3_misses, &CoreStats::l3_misses},
    {"l1i_misses", &PhaseSample::l1i_misses, &CoreStats::l1i_misses},
};
static_assert(sizeof(PhaseSample)
                  == std::size(kPhaseSampleCounters) * sizeof(uint64_t),
              "every PhaseSample counter has a kPhaseSampleCounters row");

/** SiteUarch's counters in the order the attribution report writes them
 *  (obs::kSiteCounters adds the two fields derived at merge). */
inline constexpr Counter<SiteUarch> kSiteUarchCounters[] = {
    {"blocks", &SiteUarch::blocks},
    {"branches", &SiteUarch::branches},
    {"taken", &SiteUarch::taken},
    {"loads", &SiteUarch::loads},
    {"stores", &SiteUarch::stores},
    {"load_bytes", &SiteUarch::load_bytes},
    {"store_bytes", &SiteUarch::store_bytes},
    {"cycles", &SiteUarch::cycles},
    {"slots_retiring", &SiteUarch::slots_retiring},
    {"slots_frontend", &SiteUarch::slots_frontend},
    {"slots_bad_spec", &SiteUarch::slots_bad_spec},
    {"slots_backend_memory", &SiteUarch::slots_backend_memory},
    {"slots_backend_core", &SiteUarch::slots_backend_core},
    {"branch_mispredicts", &SiteUarch::branch_mispredicts},
    {"l1d_accesses", &SiteUarch::l1d_accesses},
    {"l1d_misses", &SiteUarch::l1d_misses},
    {"l2_misses", &SiteUarch::l2_misses},
    {"l3_misses", &SiteUarch::l3_misses},
    {"l1i_accesses", &SiteUarch::l1i_accesses},
    {"l1i_misses", &SiteUarch::l1i_misses},
    {"itlb_misses", &SiteUarch::itlb_misses},
    {"btb_misses", &SiteUarch::btb_misses},
};
static_assert(sizeof(SiteUarch)
                  == std::size(kSiteUarchCounters) * sizeof(uint64_t),
              "every SiteUarch field has a kSiteUarchCounters row");

/**
 * Rejects a configuration the model cannot simulate, with a VT_FATAL
 * naming the class and the field: window sizes, width and MSHRs must be
 * at least 1, penalties and bubbles at least 0, the clock positive, every
 * latency in [0, 2^15) and the cache, iTLB and BTB geometry realizable.
 */
void validateCoreParams(const CoreParams& params);

/**
 * The core model; attach with trace::setSink(&model), run the workload,
 * then call finish().
 *
 * The model simulates one code layout, fixed at construction (null = the
 * default). Its producer places each block where the layout puts it and
 * flips each branch the layout inverts, so every stage sees the stream
 * of the laid-out binary.
 *
 * One model simulates a list of server classes from one probe stream
 * (DESIGN.md §13, "One pass, many classes"). It runs as two stages over a
 * ring of compact event records ("Pipelined stages"). The functional
 * stage owns the caches, iTLBs, branch predictors and BTBs, whose
 * outcomes depend only on the order of events: it simulates each
 * distinct structure once per distinct input stream and annotates the
 * records once per distinct outcome. The timing stage keeps one dispatch
 * and window model per class, with that class's CoreStats, per-site
 * attribution and phase samples. A single class is the one-element case.
 * When two cores of the process budget are free (common/cores.h) each
 * stage runs on its own helper thread; otherwise the probe-emitting
 * thread runs both over each full slot. Either way every class's results
 * are bit-identical to a model of that class alone. Accessors other than
 * params() and classCount() are valid only after finish().
 */
class CoreModel : public trace::ProbeSink
{
  public:
    explicit CoreModel(const CoreParams& params,
                       std::shared_ptr<const trace::CodeLayout> layout = {});

    /** Simulates every class of `classes` (at least one) from the one
     *  stream; each is validated before any state is built. */
    explicit CoreModel(const std::vector<CoreParams>& classes,
                       std::shared_ptr<const trace::CodeLayout> layout = {});

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

    /** Drains the ring, joins the helper threads and returns the first
     *  class's statistics (stats(c) has every class's). */
    CoreStats finish();

    /** Number of simulated classes. */
    size_t classCount() const { return classes_.size(); }

    const CoreParams& params(size_t cls = 0) const;

    /** Class `cls`'s statistics (after finish()). */
    const CoreStats& stats(size_t cls) const;

    /** True if the stages ran on helper threads rather than inline. */
    bool ranOnHelpers() const { return ran_on_helpers_; }

    /** Per-site attribution, indexed by trace::CodeSite::id (shorter than
     *  the registry if trailing sites saw no events). Empty when
     *  CoreParams::attribute_sites is off. */
    const std::vector<SiteUarch>& attributionPerSite(size_t cls = 0) const;

    /** Charges that predate the first block probe (attribution on). */
    const SiteUarch& attributionUnattributed(size_t cls = 0) const;

    bool attributionEnabled(size_t cls = 0) const
    {
        return params(cls).attribute_sites;
    }

    /** Cumulative snapshots every CoreParams::phase_window retired
     *  instructions; finish() appends a final end-of-run sample. Empty
     *  when phase_window is 0. */
    const std::vector<PhaseSample>& phaseSamples(size_t cls = 0) const;

  private:
    /**
     * One probe event in the stage ring: 16 bytes, written by the
     * producer and read by both stages. The low three bits of `tag` give
     * the kind: kBlockBit and/or kBranchBit mark a site record, neither
     * marks a memory record; kFlagBit is the branch direction (site
     * records) or "store" (memory records).
     *
     *   site:   word = layout address, tag = CodeSite* | kind bits
     *   memory: word = address,        tag = bytes << 32 | kind bits
     *
     * The functional stage writes its outcome for each record to one
     * word per annotation group (see core.cc): the first group's over
     * `word` in place, every other group's to its own array. The producer
     * resolves the site's layout address and branch polarity, so the
     * stages never consult the layout.
     */
    struct StageRecord
    {
        uint64_t word;
        uint64_t tag;
    };

    /** Ring geometry: 4 slots x 2048 records, plus 2048 outcome words
     *  per slot for each annotation group after the first; inline, only
     *  slot 0 is allocated.
     *  Every block is a separate allocation below glibc's mmap
     *  threshold: one 128 KiB block per model raised the peak RSS of a
     *  cache-heavy farm run by half, through the threshold's dynamic
     *  adjustment. */
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
        /// Outcome words of annotation groups 1.. (group g at g - 1);
        /// group 0's outcome of record i is records[i].word.
        std::vector<std::unique_ptr<uint64_t[]>> words;
    };

    /** The shared structures and their per-record outcomes (core.cc). */
    struct Functional;
    /** One class's dispatch/window model and results (core.cc). */
    struct ClassTiming;

    // ---- Producer (the probe-emitting thread) ----

    /** Appends one raw record; publishes the slot when it fills. */
    void push(uint64_t word, uint64_t tag);

    /** Hands the full slot on: inline, runs both stages over it; with
     *  helpers, passes it to the functional stage and waits for the next
     *  slot to come free. The first full slot decides between the two. */
    void publish();

    /** Allocates slot `i`'s records and outcome words. */
    void allocateSlot(uint32_t i);

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

    /** The functional stage over a slot's first `count` records. The
     *  one-of-each instantiation serves every model whose classes share
     *  all of their structures (every one-class model): the same code
     *  with compile-time group counts of one. */
    template <bool kOneOfEach>
    void functionalStage(Slot& slot, uint32_t count);

    /** functionalStage<true> when every group has one member. */
    bool one_of_each_ = false;

    /** Runs the functional stage instantiation this model uses. */
    void
    runFunctional(Slot& slot, uint32_t count)
    {
        if (one_of_each_) {
            functionalStage<true>(slot, count);
        } else {
            functionalStage<false>(slot, count);
        }
    }

    /** Every class's timing stage over a slot's first `count` records. */
    void timingStages(const Slot& slot, uint32_t count);

    bool finished_ = false;
    /// The simulated layout (never null: empty is the default layout).
    std::shared_ptr<const trace::CodeLayout> layout_;

    std::unique_ptr<Functional> fn_;
    std::vector<std::unique_ptr<ClassTiming>> classes_;

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

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_CORE_H_
