#include "uarch/core.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <span>

#include "common/status.h"
#include "uarch/branch.h"
#include "uarch/timing.h"
#include "uarch/tlb.h"

namespace vtrans::uarch {

// ---- Derived metrics ------------------------------------------------------

double
CoreStats::ipc() const
{
    return cycles == 0
               ? 0.0
               : static_cast<double>(instructions) / cycles;
}

double
perKilo(uint64_t events, uint64_t instructions)
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(events)
                     / static_cast<double>(instructions);
}

namespace {

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
    for (const Counter<SiteUarch>& c : kSiteUarchCounters) {
        this->*c.member += other.*c.member;
    }
}


// ---- Validation -------------------------------------------------------------

namespace {

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Latencies (and so the sums the stage words carry) stay below 2^15. */
constexpr int kMaxLatency = 1 << 15;

void
validateCache(const std::string& cls, const char* field,
              const CacheParams& c)
{
    if (!isPowerOfTwo(c.line_bytes)) {
        VT_FATAL("core class '", cls, "': ", field,
                 ".line_bytes must be a power of two, got ", c.line_bytes);
    }
    if (c.assoc == 0) {
        VT_FATAL("core class '", cls, "': ", field,
                 ".assoc must be at least 1");
    }
    const uint64_t set_bytes =
        static_cast<uint64_t>(c.line_bytes) * c.assoc;
    if (c.size_bytes % set_bytes != 0
        || !isPowerOfTwo(c.size_bytes / set_bytes)) {
        VT_FATAL("core class '", cls, "': ", field, ".size_bytes (",
                 c.size_bytes, ") must be a power-of-two number of sets of ",
                 set_bytes, " bytes");
    }
}

} // namespace

void
validateCoreParams(const CoreParams& p)
{
    const std::string& cls = p.name;
    const std::pair<const char*, int> at_least_one[] = {
        {"width", p.width},
        {"rob_size", p.rob_size},
        {"rs_size", p.rs_size},
        {"sb_size", p.sb_size},
        {"mshr_entries", p.mshr_entries},
    };
    for (const auto& [field, value] : at_least_one) {
        if (value < 1) {
            VT_FATAL("core class '", cls, "': ", field,
                     " must be at least 1, got ", value);
        }
    }
    const std::pair<const char*, int> penalties[] = {
        {"mispredict_penalty", p.mispredict_penalty},
        {"btb_miss_penalty", p.btb_miss_penalty},
        {"taken_bubble", p.taken_bubble},
    };
    for (const auto& [field, value] : penalties) {
        if (value < 0) {
            VT_FATAL("core class '", cls, "': ", field,
                     " must be at least 0, got ", value);
        }
    }
    const std::pair<const char*, int> latencies[] = {
        {"latencies.l1", p.latencies.l1},
        {"latencies.l2", p.latencies.l2},
        {"latencies.l3", p.latencies.l3},
        {"latencies.l4", p.latencies.l4},
        {"latencies.memory", p.latencies.memory},
        {"latencies.itlb_miss", p.latencies.itlb_miss},
    };
    for (const auto& [field, value] : latencies) {
        if (value < 0 || value >= kMaxLatency) {
            VT_FATAL("core class '", cls, "': ", field, " must be in [0, ",
                     kMaxLatency, "), got ", value);
        }
    }
    if (!(p.freq_ghz > 0.0)) {
        VT_FATAL("core class '", cls, "': freq_ghz must be positive, got ",
                 p.freq_ghz);
    }
    validateCache(cls, "l1d", p.l1d);
    validateCache(cls, "l1i", p.l1i);
    validateCache(cls, "l2", p.l2);
    validateCache(cls, "l3", p.l3);
    if (p.l4_size > 0) {
        validateCache(cls, "l4_size", {p.l4_size, 16, 64});
    }
    if (p.itlb_entries == 0 || p.itlb_entries % Tlb::kWays != 0
        || !isPowerOfTwo(p.itlb_entries / Tlb::kWays)) {
        VT_FATAL("core class '", cls, "': itlb_entries must be a "
                 "power-of-two number of ", Tlb::kWays, "-way sets, got ",
                 p.itlb_entries);
    }
    static_assert(Btb::kEntries % Btb::kWays == 0
                      && ((Btb::kEntries / Btb::kWays)
                          & (Btb::kEntries / Btb::kWays - 1))
                             == 0,
                  "the BTB must be a power-of-two number of sets");
    if (p.predictor != "pentium_m" && p.predictor != "tage") {
        VT_FATAL("core class '", cls, "': predictor must be pentium_m or "
                 "tage, got '", p.predictor, "'");
    }
}

// ---- Record encoding ---------------------------------------------------------

namespace {

// Raw record kind bits (CoreModel::StageRecord::tag).
constexpr uint64_t kBlockBit = 1;
constexpr uint64_t kBranchBit = 2;
constexpr uint64_t kFlagBit = 4;
constexpr uint64_t kKindBits = 7;

static_assert(alignof(trace::CodeSite) >= 8,
              "site records tag the low three bits of a CodeSite pointer");

// Outcome word of a site record:
//   bits 0-31 L1i misses, bits 32-61 fetch penalty,
//   kMispredictBit, kBtbHitBit.
constexpr uint64_t kMispredictBit = 1ull << 62;
constexpr uint64_t kBtbHitBit = 1ull << 63;
constexpr uint64_t kPenaltyMask = (1ull << 30) - 1;

// Outcome word of a memory record: 16-bit L1d, L2 and L3 miss counts at
// bits 0, 16 and 32, and the load latency at bit 48. A record may span
// at most kMaxRecordLines lines so the counts fit.
constexpr uint32_t kMaxRecordLines = 0xffff;

/** Bit `level` (a MissLevel) set for every level that served a line. */
constexpr uint32_t kServedMasks = 16;

const trace::CodeSite&
siteOf(uint64_t tag)
{
    return *reinterpret_cast<const trace::CodeSite*>(tag & ~kKindBits);
}

bool
sameCache(const CacheParams& a, const CacheParams& b)
{
    return a.size_bytes == b.size_bytes && a.assoc == b.assoc
           && a.line_bytes == b.line_bytes;
}

bool
sameLatencies(const LatencyParams& a, const LatencyParams& b)
{
    return a.l1 == b.l1 && a.l2 == b.l2 && a.l3 == b.l3 && a.l4 == b.l4
           && a.memory == b.memory && a.itlb_miss == b.itlb_miss;
}

/** The first element of `groups` matching `same`, appending `make()`
 *  when none does. `groups` must have the capacity reserved, so that
 *  earlier elements never move. */
template <typename T, typename Same, typename Make>
T*
findOrAdd(std::vector<T>& groups, Same same, Make make)
{
    for (T& g : groups) {
        if (same(g)) {
            return &g;
        }
    }
    VT_ASSERT(groups.size() < groups.capacity(), "group storage moved");
    groups.push_back(make());
    return &groups.back();
}

} // namespace

// ---- Functional stage state ---------------------------------------------------

/**
 * Precomputed instruction-fetch geometry of one code site for one L1i.
 * The block's line span is a pure function of the site's size and its
 * layout address, both fixed for the model's lifetime, so it is computed
 * once, at the site's first sighting (`line_count` 0 = not built yet).
 * `slots` remembers, per line, the way the line was last resident in;
 * Cache::touchIfResident() re-validates the hint on every use, so a
 * stale slot costs one failed tag compare, never a wrong result.
 */
struct SiteFetchPlan
{
    uint64_t first_line = 0;     ///< First L1i line index.
    uint32_t line_count = 0;     ///< Lines spanned by the block.
    std::vector<uint32_t> slots; ///< Resident-way hint per line.
};

/**
 * Every structure the classes' functional stages would hold, each kept
 * once per distinct (parameters, input stream) — the sharing keys of
 * DESIGN.md §13:
 *
 *   L1d            its CacheParams (input: every memory record)
 *   L1i            its CacheParams (input: every block record)
 *   outer levels   (L1d, L1i, L2, L3, L4 size): fed by the misses of
 *                  exactly those two L1s, interleaved in event order
 *   iTLB           entry count (input: every block record)
 *   predictor+BTB  predictor family (input: every branch; the BTB sees
 *                  the branches its predictor got right)
 *   annotation     (outer levels, iTLB, predictor, latencies): one
 *                  outcome word per record, read by the timing stage of
 *                  every class in the group
 *
 * Each structure also keeps the outcome of the record being processed,
 * which the annotation groups then combine.
 */
struct CoreModel::Functional
{
    struct Outer;

    struct DataL1
    {
        explicit DataL1(const CacheParams& p) : params(p), cache("L1d", p) {}

        CacheParams params;
        Cache cache;
        std::vector<Outer*> outers;   ///< Outer groups this L1d feeds.
        uint64_t accesses = 0;        ///< CoreStats::l1d_accesses.
        uint64_t lines = 0;           ///< Lines of the current record.
    };

    struct FetchL1
    {
        explicit FetchL1(const CacheParams& p) : params(p), cache("L1i", p) {}

        CacheParams params;
        Cache cache;
        std::vector<Outer*> outers;   ///< Outer groups this L1i feeds.
        std::vector<SiteFetchPlan> plans; ///< By trace::CodeSite::id.
        uint64_t accesses = 0;        ///< CoreStats::l1i_accesses.
        uint32_t lines = 0;           ///< Lines of the current block.
    };

    struct Outer
    {
        DataL1* l1d = nullptr;
        FetchL1* l1i = nullptr;
        CacheParams l2;
        CacheParams l3;
        uint32_t l4_size = 0;
        OuterLevels levels;
        // The current record's L1 misses through these levels.
        uint32_t l1_misses = 0;
        uint32_t l2_misses = 0;
        uint32_t l3_misses = 0;
        uint32_t served = 0; ///< Bit per MissLevel that served a line.

        void
        clear()
        {
            l1_misses = l2_misses = l3_misses = served = 0;
        }

        /** One L1 miss of line address `addr`. */
        void
        miss(uint64_t addr)
        {
            VT_ASSERT(l1_misses < kMaxRecordLines,
                      "one probe event spans too many cache lines");
            const uint32_t level = levels.walk(addr);
            ++l1_misses;
            l2_misses += level >= kServedL3 ? 1 : 0;
            l3_misses += level >= kServedL4 ? 1 : 0;
            served |= 1u << level;
        }
    };

    struct Itlb
    {
        uint32_t entries = 0;
        Tlb tlb;
        uint64_t misses = 0; ///< CoreStats::itlb_misses.
        bool miss = false;   ///< The current block missed.
    };

    struct Predictor
    {
        explicit Predictor(const std::string& family)
            : name(family), predictor(makePredictor(family))
        {
        }

        std::string name;
        std::unique_ptr<BranchPredictor> predictor;
        Btb btb;
        uint64_t btb_misses = 0; ///< CoreStats::btb_misses.
        // The current branch.
        uint64_t outcome = 0; ///< kMispredictBit, kBtbHitBit or 0.
        bool btb_miss = false;
    };

    struct Annotation
    {
        Outer* outer = nullptr;
        Itlb* itlb = nullptr;
        Predictor* predictor = nullptr;
        LatencyParams lat;
        /// Load latency and fetch penalty by Outer::served mask.
        uint32_t data_latency[kServedMasks] = {};
        uint32_t fetch_penalty[kServedMasks] = {};
        /// The outcome word of a memory record whose lines all hit.
        uint64_t all_hit_data = 0;
        // The order-only per-site tallies (event counts, branch and
        // cache outcomes), merged into each attributing class's table
        // at finish(). `cur` is null unless a class of the group
        // attributes, and otherwise follows ClassTiming::attr_cur.
        std::vector<SiteUarch> sites;
        SiteUarch unattributed;
        SiteUarch* cur = nullptr;
    };

    std::vector<DataL1> l1d;
    std::vector<FetchL1> l1i;
    std::vector<Outer> outers;
    std::vector<Itlb> itlbs;
    std::vector<Predictor> predictors;
    std::vector<Annotation> annotations;

    /** The fetch plan of `site` at `address` in `fl` (built at the
     *  site's first sighting). */
    static SiteFetchPlan&
    planFor(FetchL1& fl, const trace::CodeSite& site, uint64_t address)
    {
        if (site.id < fl.plans.size()
            && fl.plans[site.id].line_count != 0) [[likely]] {
            return fl.plans[site.id];
        }
        return buildPlan(fl, site, address);
    }
    static SiteFetchPlan& buildPlan(FetchL1& fl,
                                    const trace::CodeSite& site,
                                    uint64_t address);

    /** The members of a group vector, as a one-element span of
     *  compile-time extent when the model has one of each structure. */
    template <bool kOneOfEach, typename T>
    static std::span<T>
    each(std::vector<T>& groups)
    {
        if constexpr (kOneOfEach) {
            return std::span<T, 1>(groups.data(), 1);
        } else {
            return std::span<T>(groups);
        }
    }

    /** L1i walks and iTLB lookups of one block; returns whether any
     *  L1i missed (the outer tallies are valid only then). */
    template <bool kOneOfEach>
    bool fetchBlock(const trace::CodeSite& site, uint64_t address);

    /** Predictor updates (and the BTB probe of a correctly predicted
     *  taken branch). */
    template <bool kOneOfEach>
    void predictBranch(uint64_t address, bool taken);

    /** L1d -> L4 walks of one load or store; returns whether any L1d
     *  missed (the outer tallies are valid only then). */
    template <bool kOneOfEach>
    bool walkData(uint64_t addr, uint32_t bytes);

    /** Zeroes every outer group's tallies (at a record's first miss). */
    template <bool kOneOfEach>
    void
    clearOuters()
    {
        for (Outer& o : each<kOneOfEach>(outers)) {
            o.clear();
        }
    }
};

// ---- Timing stage state -------------------------------------------------------

/**
 * One class's timing stage: the shared clock and windows
 * (uarch/timing.h) advanced by the event-driven fast-forward, reading
 * the functional stage's outcome word for each record. Attribution
 * charges split between the two stages: the time-based ones land in
 * this class's table, the order-only ones in its annotation group's.
 */
struct CoreModel::ClassTiming : TimingState
{
    ClassTiming(const CoreParams& p, uint32_t annotation_group);

    /** Consumes `count` records in order; record i's outcome word is
     *  words[i << shift] (shift 1 reads the records' own `word`). */
    void run(const StageRecord* records, const uint64_t* words,
             uint32_t shift, size_t count);

    void timeBlock(const trace::CodeSite& site, uint64_t outcome);
    void timeBranch(const trace::CodeSite& site, bool taken,
                    uint64_t outcome);
    void timeLoad(uint64_t outcome);
    void timeStore(uint64_t outcome);

    /** The window side of a block: its instructions in chunks. */
    void dispatchBlock(const trace::CodeSite& site);

    /** Dispatch of a resolving branch; returns its resolve cycle. */
    uint64_t dispatchBranch(const trace::CodeSite& site);

    /** The MSHR-limited completion of a load of `latency` cycles. */
    uint64_t loadComplete(int latency);

    void dispatch(uint32_t count);

    static constexpr uint32_t kNoShift = UINT32_MAX;

    uint32_t annotation = 0; ///< Functional::annotations index.
    /// log2(width) when the width is a power of two, else kNoShift.
    uint32_t width_shift = kNoShift;

    /** mshr.front() (UINT64_MAX when empty), cached so a load skips the
     *  head-pruning loop entirely while the oldest miss is still in the
     *  future — the common case on a streaming miss train. */
    uint64_t mshr_head = UINT64_MAX;
};

TimingState::TimingState(const CoreParams& p)
    : params(p),
      // Window rings hold at most one coalesced entry per occupant, so
      // reserving the modelled structure size up front means steady-state
      // pushes never reallocate — even with the fast-forward path's lazy
      // draining, occupancy (and thus entry count) stays bounded by the
      // structure size via ensure*Space().
      rob(static_cast<size_t>(p.rob_size)),
      rs(static_cast<size_t>(p.rs_size)),
      sb(static_cast<size_t>(p.sb_size)),
      mshr(static_cast<size_t>(p.mshr_entries) * 2)
{
    stats.width = params.width;
    stats.freq_ghz = params.freq_ghz;
    max_chunk =
        static_cast<uint32_t>(std::min(params.rob_size, params.rs_size));
    if (params.attribute_sites) {
        attr_cur = &attr_unattributed;
    }
    if (params.phase_window > 0) {
        next_phase = params.phase_window;
    }
}

CoreModel::ClassTiming::ClassTiming(const CoreParams& p,
                                    uint32_t annotation_group)
    : TimingState(p), annotation(annotation_group)
{
    const auto width = static_cast<uint32_t>(params.width);
    if ((width & (width - 1)) == 0) {
        width_shift = static_cast<uint32_t>(__builtin_ctz(width));
    }
}

void
TimingState::capturePhase()
{
    PhaseSample s;
    s.instructions = stats.instructions;
    s.cycles = cur_cycle;
    s.slots_retiring = stats.slots_retiring;
    s.slots_frontend = stats.slots_frontend;
    s.slots_bad_spec = stats.slots_bad_spec;
    s.slots_backend_memory = stats.slots_backend_memory;
    s.slots_backend_core = stats.slots_backend_core;
    s.branches = stats.branches;
    s.branch_mispredicts = stats.branch_mispredicts;
    s.l1d_misses = stats.l1d_misses;
    s.l2_misses = stats.l2_misses;
    s.l3_misses = stats.l3_misses;
    s.l1i_misses = stats.l1i_misses;
    phase.push_back(s);
    next_phase += params.phase_window;
}

void
TimingState::advanceTo(uint64_t target_cycle, StallCause cause)
{
    if (target_cycle <= cur_cycle) {
        return;
    }
    const uint64_t empty =
        (target_cycle - cur_cycle) * params.width - slots_in_cycle;
    switch (cause) {
      case StallCause::Frontend:
        stats.slots_frontend += empty;
        break;
      case StallCause::BadSpeculation:
        stats.slots_bad_spec += empty;
        break;
      case StallCause::BackendMemory:
        stats.slots_backend_memory += empty;
        break;
      case StallCause::BackendCore:
        stats.slots_backend_core += empty;
        break;
    }
    if (attr_cur != nullptr) {
        attr_cur->cycles += target_cycle - cur_cycle;
        switch (cause) {
          case StallCause::Frontend:
            attr_cur->slots_frontend += empty;
            break;
          case StallCause::BadSpeculation:
            attr_cur->slots_bad_spec += empty;
            break;
          case StallCause::BackendMemory:
            attr_cur->slots_backend_memory += empty;
            break;
          case StallCause::BackendCore:
            attr_cur->slots_backend_core += empty;
            break;
        }
    }
    cur_cycle = target_cycle;
    slots_in_cycle = 0;
}

[[gnu::always_inline]] inline void
CoreModel::ClassTiming::dispatch(uint32_t count)
{
    // Event-driven fast-forward (DESIGN.md §13). Two facts make a
    // closed-form advance bit-exact vs stepping one instruction at a
    // time (the oracle in uarch/stepping.cc):
    //
    //  1. fetch_ready is invariant across this call and cur_cycle only
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
    // What remains is pure arithmetic on (cur_cycle, slots_in_cycle,
    // slots_retiring, instructions): advance it in closed form.
    if (fetch_ready > cur_cycle) {
        advanceTo(fetch_ready, fetch_reason);
        drain();
    }
    const uint32_t width = static_cast<uint32_t>(params.width);
    const uint64_t slots0 = slots_in_cycle;
    // slots_in_cycle < width always holds between calls, so single-
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
    } else if (width_shift != kNoShift) {
        // Power-of-two widths (every Table IV row) skip the divide.
        rolled = total >> width_shift;
        rem = static_cast<uint32_t>(total) & (width - 1);
    } else {
        // total < width + max_chunk fits 32 bits: the cheaper divide.
        const auto total32 = static_cast<uint32_t>(total);
        rolled = total32 / width;
        rem = total32 % width;
    }
    if (attr_cur == nullptr && next_phase == UINT64_MAX) {
        // Hot path: attribution and phase sampling both off.
        stats.slots_retiring += count;
        stats.instructions += count;
        cur_cycle += rolled;
        slots_in_cycle = rem;
        if (rolled > 0) {
            drain();
        }
        return;
    }
    // Instrumented path. The attribution bucket cannot change inside
    // dispatch (only the block/branch probes retarget attr_cur), so the
    // per-site charges post once; phase samples must land exactly on
    // window boundaries, so the span splits there — O(captures), not
    // O(instructions).
    const uint64_t cycle0 = cur_cycle;
    if (next_phase == UINT64_MAX) {
        stats.slots_retiring += count;
        stats.instructions += count;
    } else {
        uint64_t done = 0;
        while (done < count) {
            const uint64_t to_boundary = next_phase - stats.instructions;
            const uint64_t span =
                std::min<uint64_t>(count - done, to_boundary);
            stats.slots_retiring += span;
            stats.instructions += span;
            done += span;
            if (span == to_boundary) {
                // A stepped loop samples after the boundary
                // instruction's retire/instruction increments but before
                // its dispatch slot is consumed: position the clock at
                // the cycle the first (done - 1) slots of this call
                // reached, then capture.
                cur_cycle = cycle0 + (slots0 + done - 1) / width;
                capturePhase();
            }
        }
    }
    cur_cycle = cycle0 + rolled;
    slots_in_cycle = rem;
    if (attr_cur != nullptr) {
        attr_cur->slots_retiring += count;
        attr_cur->cycles += rolled;
    }
    if (rolled > 0) {
        drain();
    }
}

[[gnu::always_inline]] inline void
CoreModel::ClassTiming::dispatchBlock(const trace::CodeSite& site)
{
    // The block's ALU instructions complete one cycle after dispatch and
    // issue immediately — unless the block consumes just-loaded data
    // (BlockLoadDep), in which case its work dwells in the reservation
    // station until the feeding load returns. Batches larger than a
    // window structure flow through in chunks.
    const bool load_dep = site.kind == trace::SiteKind::BlockLoadDep;
    uint32_t remaining = site.instructions;
    while (remaining > 0) {
        const uint32_t chunk = std::min(remaining, max_chunk);
        resolveFrontend();
        ensureRobSpace(chunk);
        ensureRsSpace(chunk);
        uint64_t issue = cur_cycle + 1;
        if (load_dep && last_load_complete > issue) {
            issue = last_load_complete;
        }
        robPush(issue, chunk, load_dep);
        // RS dwell is bounded (entries leave at issue; the scheduler does
        // not hold them for a full memory round trip).
        rsPush(std::min(issue, cur_cycle + 15), chunk, load_dep);
        dispatch(chunk);
        remaining -= chunk;
    }
}

[[gnu::always_inline]] inline uint64_t
CoreModel::ClassTiming::dispatchBranch(const trace::CodeSite& site)
{
    ++stats.branches;
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);

    // The branch resolves when its inputs are ready; load-dependent
    // branches resolve only after the feeding load returns.
    const bool load_dep = site.kind == trace::SiteKind::BranchLoadDep;
    uint64_t resolve = cur_cycle + 1;
    if (load_dep) {
        resolve = std::max(resolve, last_load_complete);
    }
    robPush(resolve, 1, false);
    rsPush(std::min(resolve, cur_cycle + 15), 1, load_dep);
    dispatch(1);
    return resolve;
}

[[gnu::always_inline]] inline uint64_t
CoreModel::ClassTiming::loadComplete(int latency)
{
    // Miss-status-holding registers bound memory-level parallelism: a
    // miss beyond the outstanding limit starts only when the oldest one
    // completes. mshr_head caches the oldest outstanding completion
    // (UINT64_MAX when empty), so the common no-expiry case skips the
    // pruning scan entirely; the queue itself is untouched until a head
    // actually expires, which pops the same entries an unconditional
    // scan would.
    uint64_t complete = cur_cycle + latency;
    if (latency > params.latencies.l1) {
        if (mshr_head <= cur_cycle) {
            while (!mshr.empty() && mshr.front() <= cur_cycle) {
                mshr.pop_front();
            }
            mshr_head = mshr.empty() ? UINT64_MAX : mshr.front();
        }
        if (static_cast<int>(mshr.size()) >= params.mshr_entries) {
            complete = mshr.front() + latency;
        }
        mshr.push_back(complete);
        mshr_head = mshr.front();
    }
    return complete;
}

[[gnu::always_inline]] inline void
CoreModel::ClassTiming::timeBlock(const trace::CodeSite& site,
                                  uint64_t outcome)
{
    // Frontend: the L1i misses count before the block dispatches (a phase
    // sample inside the block sees them); the fetch penalty delays the
    // frontend from the current cycle.
    stats.l1i_misses += static_cast<uint32_t>(outcome);
    delayFetch((outcome >> 32) & kPenaltyMask);
    dispatchBlock(site);
}

[[gnu::always_inline]] inline void
CoreModel::ClassTiming::timeBranch(const trace::CodeSite& site, bool taken,
                                   uint64_t outcome)
{
    const uint64_t resolve = dispatchBranch(site);
    redirect(taken, (outcome & kMispredictBit) != 0,
             (outcome & kBtbHitBit) != 0, resolve);
}

[[gnu::always_inline]] inline void
CoreModel::ClassTiming::timeLoad(uint64_t outcome)
{
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    stats.l1d_misses += outcome & 0xffff;
    stats.l2_misses += (outcome >> 16) & 0xffff;
    stats.l3_misses += (outcome >> 32) & 0xffff;
    const int latency = static_cast<int>(outcome >> 48);
    const uint64_t complete = loadComplete(latency);
    last_load_complete = complete;
    robPush(complete, 1, true);
    // Loads leave the reservation station at issue (address generation),
    // not at data return; only a bounded scheduler dwell is charged. The
    // in-order-retire ROB carries the full miss latency.
    rsPush(cur_cycle + std::min(latency, 15), 1, true);
    dispatch(1);
}

[[gnu::always_inline]] inline void
CoreModel::ClassTiming::timeStore(uint64_t outcome)
{
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    ensureSbSpace(1);
    stats.l1d_misses += outcome & 0xffff;
    stats.l2_misses += (outcome >> 16) & 0xffff;
    stats.l3_misses += (outcome >> 32) & 0xffff;
    const int latency = static_cast<int>(outcome >> 48);

    // Stores retire promptly but occupy the store buffer until the line
    // is written; a full SB blocks dispatch (space reserved above).
    sbPush(cur_cycle + latency, 1);
    robPush(cur_cycle + 1, 1, false);
    rsPush(cur_cycle + 1, 1, false);
    dispatch(1);
}

void
CoreModel::ClassTiming::run(const StageRecord* records,
                            const uint64_t* words, uint32_t shift,
                            size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        const uint64_t tag = records[i].tag;
        const uint64_t outcome = words[i << shift];
        if ((tag & (kBlockBit | kBranchBit)) == 0) {
            if ((tag & kFlagBit) != 0) {
                timeStore(outcome);
            } else {
                timeLoad(outcome);
            }
            continue;
        }
        const trace::CodeSite& site = siteOf(tag);
        if (attr_cur != nullptr) {
            attr_cur = &siteBucket(attr_sites, site.id);
        }
        if ((tag & kBlockBit) != 0) {
            timeBlock(site, outcome);
        }
        if ((tag & kBranchBit) != 0) {
            timeBranch(site, (tag & kFlagBit) != 0, outcome);
        }
    }
}

void
TimingState::finishClock()
{
    // Let the machine drain: run the clock to the last retirement.
    uint64_t end = std::max(cur_cycle, fetch_ready);
    if (!rob.empty()) {
        end = std::max(end, rob.back().time);
    }
    if (!sb.empty()) {
        end = std::max(end, sb.back().time);
    }
    if (slots_in_cycle > 0) {
        // Fill the partial cycle's leftover slots as backend-core.
        stats.slots_backend_core += params.width - slots_in_cycle;
        if (attr_cur != nullptr) {
            attr_cur->slots_backend_core += params.width - slots_in_cycle;
            ++attr_cur->cycles;
        }
        ++cur_cycle;
        slots_in_cycle = 0;
    }
    advanceTo(end, StallCause::BackendMemory);

    stats.cycles = cur_cycle;
    stats.slots_total = stats.cycles * static_cast<uint64_t>(params.width);
    if (next_phase != UINT64_MAX
        && (phase.empty() || phase.back().instructions != stats.instructions
            || phase.back().cycles != stats.cycles)) {
        // Close the time-series with the post-drain totals.
        capturePhase();
    }
}

// ---- CoreModel: construction ------------------------------------------------

CoreModel::CoreModel(const CoreParams& params,
                     std::shared_ptr<const trace::CodeLayout> layout)
    : CoreModel(std::vector<CoreParams>{params}, std::move(layout))
{
}

CoreModel::CoreModel(const std::vector<CoreParams>& classes,
                     std::shared_ptr<const trace::CodeLayout> layout)
    : layout_(layout != nullptr ? std::move(layout)
                                : std::make_shared<trace::CodeLayout>()),
      fn_(std::make_unique<Functional>())
{
    VT_ASSERT(!classes.empty(), "a core model needs at least one class");
    for (const CoreParams& p : classes) {
        validateCoreParams(p);
    }

    // Group every structure by its sharing key (see Functional).
    Functional& f = *fn_;
    f.l1d.reserve(classes.size());
    f.l1i.reserve(classes.size());
    f.outers.reserve(classes.size());
    f.itlbs.reserve(classes.size());
    f.predictors.reserve(classes.size());
    f.annotations.reserve(classes.size());
    for (const CoreParams& p : classes) {
        Functional::DataL1* d = findOrAdd(
            f.l1d,
            [&](const Functional::DataL1& g) {
                return sameCache(g.params, p.l1d);
            },
            [&] { return Functional::DataL1(p.l1d); });
        Functional::FetchL1* i = findOrAdd(
            f.l1i,
            [&](const Functional::FetchL1& g) {
                return sameCache(g.params, p.l1i);
            },
            [&] { return Functional::FetchL1(p.l1i); });
        Functional::Outer* o = findOrAdd(
            f.outers,
            [&](const Functional::Outer& g) {
                return g.l1d == d && g.l1i == i && sameCache(g.l2, p.l2)
                       && sameCache(g.l3, p.l3) && g.l4_size == p.l4_size;
            },
            [&] {
                return Functional::Outer{d, i, p.l2, p.l3, p.l4_size,
                                         OuterLevels(p.l2, p.l3, p.l4_size)};
            });
        Functional::Itlb* t = findOrAdd(
            f.itlbs,
            [&](const Functional::Itlb& g) {
                return g.entries == p.itlb_entries;
            },
            [&] {
                return Functional::Itlb{p.itlb_entries,
                                        Tlb(p.itlb_entries)};
            });
        Functional::Predictor* b = findOrAdd(
            f.predictors,
            [&](const Functional::Predictor& g) {
                return g.name == p.predictor;
            },
            [&] { return Functional::Predictor(p.predictor); });
        Functional::Annotation* a = findOrAdd(
            f.annotations,
            [&](const Functional::Annotation& g) {
                return g.outer == o && g.itlb == t && g.predictor == b
                       && sameLatencies(g.lat, p.latencies);
            },
            [&] {
                Functional::Annotation g;
                g.outer = o;
                g.itlb = t;
                g.predictor = b;
                g.lat = p.latencies;
                // The same expressions the fused hierarchy walk used: a
                // load takes its slowest line (at least the L1 latency);
                // a fetch penalty is the slowest missing line's latency
                // beyond the L1.
                for (uint32_t mask = 0; mask < kServedMasks; ++mask) {
                    int latency = p.latencies.l1;
                    int penalty = 0;
                    for (uint32_t level = 0; level < 4; ++level) {
                        if ((mask & (1u << level)) != 0) {
                            const int miss = p.latencies.l1
                                             + missLatency(level, p.latencies);
                            latency = std::max(latency, miss);
                            penalty =
                                std::max(penalty, miss - p.latencies.l1);
                        }
                    }
                    g.data_latency[mask] = static_cast<uint32_t>(latency);
                    g.fetch_penalty[mask] = static_cast<uint32_t>(penalty);
                }
                g.all_hit_data = static_cast<uint64_t>(g.data_latency[0])
                                 << 48;
                return g;
            });
        classes_.push_back(std::make_unique<ClassTiming>(
            p, static_cast<uint32_t>(a - f.annotations.data())));
    }
    for (const auto& cls : classes_) {
        if (cls->params.attribute_sites) {
            Functional::Annotation& g = f.annotations[cls->annotation];
            g.cur = &g.unattributed;
        }
    }
    for (Functional::Outer& o : f.outers) {
        o.l1d->outers.push_back(&o);
        o.l1i->outers.push_back(&o);
    }
    one_of_each_ = f.annotations.size() == 1 && f.l1d.size() == 1
                   && f.l1i.size() == 1 && f.outers.size() == 1
                   && f.itlbs.size() == 1 && f.predictors.size() == 1;

    allocateSlot(0);
    pos_ = ring_[0].records.get();
    end_ = pos_ + kSlotRecords;
}

CoreModel::~CoreModel()
{
    stopHelpers();
}

void
CoreModel::allocateSlot(uint32_t i)
{
    Slot& slot = ring_[i];
    slot.records = std::make_unique_for_overwrite<StageRecord[]>(kSlotRecords);
    for (size_t g = 1; g < fn_->annotations.size(); ++g) {
        slot.words.push_back(
            std::make_unique_for_overwrite<uint64_t[]>(kSlotRecords));
    }
}

const CoreParams&
CoreModel::params(size_t cls) const
{
    return classes_.at(cls)->params;
}

const CoreStats&
CoreModel::stats(size_t cls) const
{
    return classes_.at(cls)->stats;
}

const std::vector<SiteUarch>&
CoreModel::attributionPerSite(size_t cls) const
{
    return classes_.at(cls)->attr_sites;
}

const SiteUarch&
CoreModel::attributionUnattributed(size_t cls) const
{
    return classes_.at(cls)->attr_unattributed;
}

const std::vector<PhaseSample>&
CoreModel::phaseSamples(size_t cls) const
{
    return classes_.at(cls)->phase;
}

// ---- Producer: probe events -> ring records ---------------------------------

namespace {

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
    push(layout_->at(site).address,
         reinterpret_cast<uintptr_t>(&site) | kBlockBit);
}

void
CoreModel::onBranch(const trace::CodeSite& site, bool taken)
{
    const trace::SitePlacement place = layout_->at(site);
    push(place.address, reinterpret_cast<uintptr_t>(&site) | kBranchBit
                            | (taken != place.invert ? kFlagBit : 0));
}

void
CoreModel::onLoad(uint64_t addr, uint32_t bytes)
{
    push(addr, static_cast<uint64_t>(bytes) << 32);
}

void
CoreModel::onStore(uint64_t addr, uint32_t bytes)
{
    push(addr, (static_cast<uint64_t>(bytes) << 32) | kFlagBit);
}

void
CoreModel::onBatch(const trace::ProbeEvent* events, size_t count)
{
    // Loop-heavy streams repeat the same site id back to back, so a
    // one-entry cache skips the registry and layout lookups for the
    // repeat case (CodeSite objects are stable once defined). Only this
    // thread reads them: records carry the resolved CodeSite, its layout
    // address and the post-polarity direction.
    trace::SiteRegistry& reg = trace::registry();
    const trace::CodeSite* last_site = nullptr;
    uint32_t last_aux = 0;
    uint64_t last_address = 0;
    uint64_t last_flip = 0; ///< kFlagBit if the layout inverts the site.
    for (size_t i = 0; i < count; ++i) {
        const trace::ProbeEvent& e = events[i];
        switch (e.kind) {
        case trace::ProbeEvent::kBlock:
        case trace::ProbeEvent::kBlockBranch: {
            if (last_site == nullptr || e.aux != last_aux) {
                last_site = &reg.site(e.aux);
                last_aux = e.aux;
                const trace::SitePlacement place = layout_->at(*last_site);
                last_address = place.address;
                last_flip = place.invert ? kFlagBit : 0;
            }
            uint64_t tag = reinterpret_cast<uintptr_t>(last_site) | kBlockBit;
            if (e.kind == trace::ProbeEvent::kBlockBranch) {
                tag |= kBranchBit
                       | (((e.flags & 1) != 0 ? kFlagBit : 0) ^ last_flip);
            }
            push(last_address, tag);
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
                allocateSlot(i);
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
    Slot& slot = ring_[fill_slot_];
    runFunctional(slot, count);
    timingStages(slot, count);
    pos_ = slot.records.get();
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
            runFunctional(slot, count);
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
            timingStages(slot, count);
        }
        setState(slot.state, kFree);
        if (count == kStopSlot) {
            return;
        }
    }
}

void
CoreModel::timingStages(const Slot& slot, uint32_t count)
{
    for (const auto& cls : classes_) {
        // Group 0's words are the records' own: stride two words.
        static_assert(sizeof(StageRecord) == 2 * sizeof(uint64_t)
                      && offsetof(StageRecord, word) == 0);
        const uint32_t g = cls->annotation;
        cls->run(slot.records.get(),
                 g == 0 ? &slot.records[0].word : slot.words[g - 1].get(),
                 g == 0 ? 1 : 0, count);
    }
}

// ---- Functional stage: caches, iTLBs, predictors, BTBs ----------------------

SiteFetchPlan&
CoreModel::Functional::buildPlan(FetchL1& fl, const trace::CodeSite& site,
                                 uint64_t address)
{
    if (site.id >= fl.plans.size()) {
        fl.plans.resize(site.id + 1);
    }
    SiteFetchPlan& plan = fl.plans[site.id];
    const uint32_t line_bytes = fl.params.line_bytes;
    const uint64_t first = address / line_bytes;
    const uint64_t last = (address + site.bytes - 1) / line_bytes;
    VT_ASSERT(fl.cache.fitsLine(last), "code address ", address,
              " beyond the simulated address range");
    plan.first_line = first;
    plan.line_count = static_cast<uint32_t>(last - first + 1);
    plan.slots.resize(plan.line_count);
    for (uint32_t k = 0; k < plan.line_count; ++k) {
        // Seed every hint with way 0 of the line's own set: same-set by
        // construction, so touchIfResident()'s tag compare is sound from
        // the first use.
        plan.slots[k] = fl.cache.setBaseSlot(first + k);
    }
    return plan;
}

template <bool kOneOfEach>
[[gnu::always_inline]] inline bool
CoreModel::Functional::fetchBlock(const trace::CodeSite& site,
                                  uint64_t address)
{
    // Fetch the block's cache lines through each L1i, walking the site's
    // precomputed fetch plan. A line whose resident-way hint still holds
    // it takes the inline hit arm; anything else falls back to the full
    // access, refreshes the hint, and on a miss walks the outer levels
    // this L1i feeds.
    bool missed = false;
    for (FetchL1& fl : each<kOneOfEach>(l1i)) {
        SiteFetchPlan& plan = planFor(fl, site, address);
        Cache& cache = fl.cache;
        const uint32_t lines = plan.line_count;
        uint32_t* slots = plan.slots.data();
        for (uint32_t k = 0; k < lines; ++k) {
            const uint64_t l = plan.first_line + k;
            if (cache.touchIfResident(l, slots[k])) {
                continue; // L1i hit with exact hit-arm bookkeeping.
            }
            const bool hit = cache.accessLine(l);
            slots[k] = cache.mruSlot();
            if (!hit) {
                if (!missed) {
                    clearOuters<kOneOfEach>();
                    missed = true;
                }
                for (Outer* o : fl.outers) {
                    o->miss(l << cache.lineShift());
                }
            }
        }
        fl.accesses += lines;
        fl.lines = lines;
    }
    const uint64_t page = address >> 12;
    for (Itlb& t : each<kOneOfEach>(itlbs)) {
        t.miss = !t.tlb.accessPage(page);
        t.misses += t.miss ? 1 : 0;
    }
    return missed;
}

template <bool kOneOfEach>
[[gnu::always_inline]] inline void
CoreModel::Functional::predictBranch(uint64_t address, bool taken)
{
    for (Predictor& p : each<kOneOfEach>(predictors)) {
        // One devirtualizable call per branch instead of the predict() +
        // update() virtual pair; behaviour is identical by construction.
        const bool predicted = p.predictor->predictAndUpdate(address, taken);
        p.outcome = 0;
        p.btb_miss = false;
        if (predicted != taken) {
            p.outcome = kMispredictBit;
        } else if (taken) {
            // Correctly predicted taken: the BTB decides the bubble.
            if (p.btb.access(address)) {
                p.outcome = kBtbHitBit;
            } else {
                p.btb_miss = true;
                ++p.btb_misses;
            }
        }
    }
}

template <bool kOneOfEach>
[[gnu::always_inline]] inline bool
CoreModel::Functional::walkData(uint64_t addr, uint32_t bytes)
{
    // Line span via shifts: line sizes are validated powers of two, and
    // unsigned divide/multiply by 2^k is exactly shift by k — this only
    // dodges the hardware divide the / form costs per event. Stores
    // write-allocate, so loads and stores walk alike.
    bool missed = false;
    for (DataL1& d : each<kOneOfEach>(l1d)) {
        Cache& cache = d.cache;
        const uint32_t shift = cache.lineShift();
        const uint64_t first = addr >> shift;
        const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) >> shift;
        for (uint64_t l = first; l <= last; ++l) {
            if (!cache.accessLine(l)) {
                if (!missed) {
                    clearOuters<kOneOfEach>();
                    missed = true;
                }
                for (Outer* o : d.outers) {
                    o->miss(l << shift);
                }
            }
        }
        d.lines = last - first + 1;
        d.accesses += d.lines;
    }
    return missed;
}

template <bool kOneOfEach>
void
CoreModel::functionalStage(Slot& slot, uint32_t count)
{
    Functional& f = *fn_;
    StageRecord* records = slot.records.get();
    const std::span<Functional::Annotation> groups =
        Functional::each<kOneOfEach>(f.annotations);
    // Group 0 writes over the raw word: every structure has read it
    // before any group writes.
    auto out = [&](size_t g, uint32_t i) -> uint64_t& {
        return g == 0 ? records[i].word : slot.words[g - 1][i];
    };
    for (uint32_t i = 0; i < count; ++i) {
        const StageRecord& r = records[i];
        const uint64_t tag = r.tag;
        if ((tag & (kBlockBit | kBranchBit)) == 0) {
            const auto bytes = static_cast<uint32_t>(tag >> 32);
            const bool missed = f.walkData<kOneOfEach>(r.word, bytes);
            for (size_t g = 0; g < groups.size(); ++g) {
                Functional::Annotation& a = groups[g];
                if (!missed) {
                    out(g, i) = a.all_hit_data;
                } else {
                    const Functional::Outer& o = *a.outer;
                    out(g, i) =
                        o.l1_misses
                        | (static_cast<uint64_t>(o.l2_misses) << 16)
                        | (static_cast<uint64_t>(o.l3_misses) << 32)
                        | (static_cast<uint64_t>(a.data_latency[o.served])
                           << 48);
                }
                if (a.cur != nullptr) {
                    const Functional::Outer& o = *a.outer;
                    if ((tag & kFlagBit) != 0) {
                        ++a.cur->stores;
                        a.cur->store_bytes += bytes;
                    } else {
                        ++a.cur->loads;
                        a.cur->load_bytes += bytes;
                    }
                    a.cur->l1d_accesses += o.l1d->lines;
                    if (missed) {
                        a.cur->l1d_misses += o.l1_misses;
                        a.cur->l2_misses += o.l2_misses;
                        a.cur->l3_misses += o.l3_misses;
                    }
                }
            }
            continue;
        }
        const trace::CodeSite& site = siteOf(tag);
        const bool block = (tag & kBlockBit) != 0;
        const bool branch = (tag & kBranchBit) != 0;
        const bool taken = (tag & kFlagBit) != 0;
        const bool missed = block && f.fetchBlock<kOneOfEach>(site, r.word);
        if (branch) {
            f.predictBranch<kOneOfEach>(r.word, taken);
        }
        for (size_t g = 0; g < groups.size(); ++g) {
            Functional::Annotation& a = groups[g];
            if (a.cur != nullptr) {
                a.cur = &siteBucket(a.sites, site.id);
            }
            uint64_t word = 0;
            if (block) {
                const Functional::Outer& o = *a.outer;
                const bool itlb_miss = a.itlb->miss;
                const uint32_t l1i_misses = missed ? o.l1_misses : 0;
                const uint64_t penalty =
                    (missed ? a.fetch_penalty[o.served] : 0)
                    + (itlb_miss ? static_cast<uint32_t>(a.lat.itlb_miss) : 0);
                word = l1i_misses | (penalty << 32);
                if (a.cur != nullptr) {
                    ++a.cur->blocks;
                    a.cur->l1i_accesses += o.l1i->lines;
                    a.cur->l1i_misses += l1i_misses;
                    a.cur->itlb_misses += itlb_miss ? 1 : 0;
                }
            }
            if (branch) {
                const Functional::Predictor& p = *a.predictor;
                word |= p.outcome;
                if (a.cur != nullptr) {
                    ++a.cur->branches;
                    a.cur->taken += taken ? 1 : 0;
                    a.cur->branch_mispredicts +=
                        p.outcome == kMispredictBit ? 1 : 0;
                    a.cur->btb_misses += p.btb_miss ? 1 : 0;
                }
            }
            out(g, i) = word;
        }
    }
}

// ---- finish ------------------------------------------------------------------

CoreStats
CoreModel::finish()
{
    VT_ASSERT(!finished_, "finish() called twice");
    finished_ = true;
    drainPipeline();

    // Fold in the functional stage's order-only counters and per-site
    // tallies (none is part of a PhaseSample).
    const Functional& f = *fn_;
    for (const auto& cls : classes_) {
        ClassTiming& t = *cls;
        t.finishClock();
        const Functional::Annotation& a = f.annotations[t.annotation];
        t.stats.l1i_accesses += a.outer->l1i->accesses;
        t.stats.l1d_accesses += a.outer->l1d->accesses;
        t.stats.itlb_misses += a.itlb->misses;
        t.stats.btb_misses += a.predictor->btb_misses;
        if (t.params.attribute_sites) {
            if (t.attr_sites.size() < a.sites.size()) {
                t.attr_sites.resize(a.sites.size());
            }
            for (size_t i = 0; i < a.sites.size(); ++i) {
                t.attr_sites[i].add(a.sites[i]);
            }
            t.attr_unattributed.add(a.unattributed);
            t.attr_cur = nullptr;
        }
    }
    return classes_.front()->stats;
}

} // namespace vtrans::uarch
