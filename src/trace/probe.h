#ifndef VTRANS_TRACE_PROBE_H_
#define VTRANS_TRACE_PROBE_H_

/**
 * @file
 * The probe bus: the contract between instrumented workload code (the
 * codec's hot kernels) and observers (the microarchitecture simulator, the
 * AutoFDO-style profile collector).
 *
 * Instrumented code declares static CodeSites — symbolic basic blocks with
 * a size in code bytes, an instruction count, and a mutable layout address —
 * and emits dynamic events through the free functions block()/branch()/
 * load()/store(). When no sink is attached the per-event cost is a single
 * predictable branch, so the codec can also run "natively".
 *
 * Dispatch to an attached sink runs in one of two modes:
 *
 *  - **Per-event** (`setSink(sink)`): every emit makes a virtual call into
 *    the sink immediately. This is the original bus and remains the
 *    reference semantics.
 *  - **Batched** (`setSink(sink, capacity)` with capacity >= 2): emits
 *    append compact `ProbeEvent` PODs to a thread-local ring buffer that is
 *    flushed to `ProbeSink::onBatch()` whenever it fills (and on flush()/
 *    detach). The default `onBatch` replays the per-event virtuals in
 *    order, so every sink observes the exact same event sequence either
 *    way — batching only amortizes the dispatch cost, it never reorders,
 *    drops, or duplicates events. Results are bit-identical by
 *    construction.
 *
 * In the batched pipeline a conditional branch is one fused block+branch
 * record (`ProbeEvent::kBlockBranch`) instead of the two separate virtual
 * calls the per-event path pays, so branch sites cost a single dispatch.
 *
 * This layer is the stand-in for binary instrumentation / hardware
 * performance counters in the paper's methodology (Intel VTune + Linux
 * perf, §III-B): instead of sampling a real PMU we observe the actual
 * dynamic instruction, memory, and branch stream of the same algorithms.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace vtrans::trace {

/** Classifies what a code site represents. */
enum class SiteKind : uint8_t {
    Block,         ///< Straight-line code; no terminating conditional.
    BlockLoadDep,  ///< Straight-line code consuming just-loaded data.
    Branch,        ///< Ends in a conditional branch (direction is probed).
    BranchLoadDep, ///< Conditional branch whose condition depends on a load.
};

/**
 * A static basic block of the (virtual) workload binary.
 *
 * `address` is the block's position in the virtual code layout; the
 * AutoFDO-style relayout pass rewrites it. `invert` models branch-polarity
 * flipping by basic-block chaining: when set, the dynamic direction fed to
 * the frontend is inverted so that the hot successor becomes fall-through.
 */
struct CodeSite
{
    uint32_t id = 0;           ///< Dense index into the registry.
    std::string name;          ///< Hierarchical name, e.g. "me.sad.row".
    uint32_t bytes = 0;        ///< Static code size of the block in bytes.
    uint32_t instructions = 0; ///< Non-memory, non-branch instructions.
    SiteKind kind = SiteKind::Block;
    uint64_t address = 0;      ///< Current layout address (mutable).
    bool invert = false;       ///< Branch polarity flip from relayout.
};

/**
 * One dynamic event of the batched pipeline, as a compact 16-byte POD.
 *
 * Only the operand fields a kind defines are written on append; the rest
 * keep whatever the buffer slot last held, so consumers must not read
 * them. Branch records carry the direction *after* layout polarity is
 * applied (exactly what the per-event path hands to `onBranch`).
 */
struct ProbeEvent
{
    enum Kind : uint8_t {
        kBlock = 0,       ///< Block executed. aux = site id.
        kBlockBranch = 1, ///< Fused block + terminating conditional branch.
                          ///< aux = site id, flags bit 0 = taken.
        kLoad = 2,        ///< Data load. addr = address, aux = bytes.
        kStore = 3,       ///< Data store. addr = address, aux = bytes.
    };

    uint64_t addr;  ///< Load/store simulated address.
    uint32_t aux;   ///< Site id (block/branch) or byte count (load/store).
    uint8_t kind;   ///< A Kind value.
    uint8_t flags;  ///< kBlockBranch: bit 0 = taken (post-polarity).
    uint16_t reserved;
};

static_assert(sizeof(ProbeEvent) == 16, "probe events must stay compact");

/** Receives dynamic events from instrumented code. */
class ProbeSink
{
  public:
    virtual ~ProbeSink() = default;

    /** A basic block executed (implies fetch of its bytes). */
    virtual void onBlock(const CodeSite& site) = 0;

    /**
     * The conditional branch terminating `site` executed.
     * @param taken Direction after layout polarity is applied.
     */
    virtual void onBranch(const CodeSite& site, bool taken) = 0;

    /** A data load of `bytes` at simulated address `addr`. */
    virtual void onLoad(uint64_t addr, uint32_t bytes) = 0;

    /** A data store of `bytes` at simulated address `addr`. */
    virtual void onStore(uint64_t addr, uint32_t bytes) = 0;

    /**
     * A block of events from the batched pipeline, in emission order.
     *
     * The default implementation replays the per-event virtuals (a fused
     * kBlockBranch record replays as onBlock then onBranch), so existing
     * sinks work under batching unchanged. Performance-critical sinks
     * override this to consume the records directly and skip the
     * per-event virtual dispatch entirely.
     */
    virtual void onBatch(const ProbeEvent* events, size_t count);
};

/**
 * The global table of code sites plus the default code layout.
 *
 * Sites register once (function-local statics in kernel code) and persist
 * for the process lifetime; registration and layout reset are mutex-guarded
 * so worker threads may run instrumented code concurrently (site storage is
 * stable, so readers need no lock). Registration *order* still determines
 * the default layout — processes that run workers should register all sites
 * serially first (see `farm::Farm::warmupProcess()`).
 * The default layout emulates a compiled binary
 * without profile feedback: blocks appear in registration order, separated
 * by cold-code padding, so the hot working set is diluted across many
 * instruction-cache lines.
 */
class SiteRegistry
{
  public:
    /** Bytes of cold padding placed after each block by default. Sized so
     *  the default layout dilutes the hot working set across many cache
     *  lines and pages, as an unoptimized binary's interleaved cold code
     *  does — the inefficiency profile-guided relayout removes. */
    static constexpr uint32_t kDefaultColdPadding = 1600;
    /** Base virtual address of the text segment. */
    static constexpr uint64_t kTextBase = 0x400000;

    /** Static code sizes are declared per probe block; the surrounding
     *  always-executed function body (prologue, address math, the code
     *  between probes) is modelled by scaling the declared size. This
     *  puts the per-macroblock code walk at a realistic multiple of the
     *  L1i capacity, as in x264. */
    static constexpr uint32_t kCodeScale = 6;

    /** Registers a site and assigns its default-layout address. */
    CodeSite& define(std::string name, uint32_t bytes, uint32_t instructions,
                     SiteKind kind);

    /** All registered sites (stable storage; index == id). */
    const std::vector<CodeSite*>& sites() const { return sites_; }

    /** Looks up a site by id. */
    CodeSite& site(uint32_t id) { return *sites_.at(id); }

    /** Restores default-layout addresses and clears polarity flips. */
    void resetLayout();

    /** Total span of the default layout in bytes (footprint proxy). */
    uint64_t defaultSpan() const { return next_address_ - kTextBase; }

  private:
    std::mutex mu_; ///< Guards registration and layout reset.
    std::vector<CodeSite*> sites_;
    uint64_t next_address_ = kTextBase;
};

/** The process-wide site registry. */
SiteRegistry& registry();

// GCC 12's UBSan null-checks the address a thread-local init wrapper
// returns using stale flags (a lea after a cmp), and reports a null load
// on probe emits. Sanitizer builds therefore declare the probe-bus
// thread-locals constinit, which removes the wrapper call. Normal builds
// keep the wrapper: dropping it doubles per-event emission speed and so
// moves the batched/per-event ratio that tools/check.sh gates.
#if defined(__SANITIZE_ADDRESS__)
#define VTRANS_PROBE_TLS constinit thread_local
#else
#define VTRANS_PROBE_TLS thread_local
#endif

/**
 * The currently attached sink (nullptr when tracing is off).
 *
 * Thread-local: each farm worker attaches its own core model and observes
 * only the events its own thread emits, so concurrent instrumented runs
 * never cross-talk.
 */
extern VTRANS_PROBE_TLS ProbeSink* g_sink;

namespace detail {

/**
 * The calling thread's batch cursor. `pos == nullptr` means per-event
 * dispatch; otherwise events append at `pos` within [begin, end) and the
 * block flushes to the sink when full.
 */
struct BatchCursor
{
    ProbeEvent* pos = nullptr;
    ProbeEvent* end = nullptr;
    ProbeEvent* begin = nullptr;
};

extern VTRANS_PROBE_TLS BatchCursor g_cursor;

/** Delivers the pending events of this thread's batch to the sink. */
void flushBatch();

} // namespace detail

/** Attaches a sink on this thread in per-event mode (replacing any);
 *  nullptr detaches. Pending batched events of the previously attached
 *  sink are flushed to it first, so no event is ever lost. */
void setSink(ProbeSink* sink);

/**
 * Attaches a sink on this thread with batched dispatch: events accumulate
 * in a thread-local buffer of `batch_capacity` records and are delivered
 * via `ProbeSink::onBatch`. A capacity of 0 or 1 degenerates to per-event
 * dispatch. As with the per-event overload, the previous sink's pending
 * events are flushed before it is replaced.
 */
void setSink(ProbeSink* sink, uint32_t batch_capacity);

/** Delivers any pending batched events on this thread to the sink now.
 *  (Detaching with setSink(nullptr) flushes implicitly.) */
void flush();

/** Compiled-in default batch capacity, chosen from the
 *  bench/microbench_probe capacity sweep (see BENCH_probe.json). */
inline constexpr uint32_t kDefaultProbeBatch = 256;

/**
 * The process-wide default batch capacity used by instrumented runs
 * (core::runInstrumented, uarch::simulate). Initialized on first read
 * from the VTRANS_PROBE_BATCH environment variable when set, else
 * kDefaultProbeBatch; benches override it with --batch-size. 0 selects
 * the per-event path, which is how the pipeline is A/B'd.
 */
uint32_t defaultBatchCapacity();

/** Overrides the process-wide default batch capacity (0 = per-event). */
void setDefaultBatchCapacity(uint32_t capacity);

/** True when a sink is attached on this thread. Kernels use this to skip
 *  probe-argument computation (simulated-address math) on native runs. */
inline bool
active()
{
    return g_sink != nullptr;
}

/** Emits a basic-block execution event. */
inline void
block(const CodeSite& site)
{
    if (g_sink == nullptr) {
        return;
    }
    detail::BatchCursor& cur = detail::g_cursor;
    if (cur.pos != nullptr) {
        ProbeEvent& e = *cur.pos++;
        e.aux = site.id;
        e.kind = ProbeEvent::kBlock;
        if (cur.pos == cur.end) {
            detail::flushBatch();
        }
        return;
    }
    g_sink->onBlock(site);
}

/** Emits a block + conditional-branch event with layout polarity applied.
 *  Batched, this is a single fused record (one dispatch per branch site);
 *  per-event it remains the onBlock + onBranch pair. */
inline void
branch(const CodeSite& site, bool taken)
{
    if (g_sink == nullptr) {
        return;
    }
    const bool direction = taken != site.invert;
    detail::BatchCursor& cur = detail::g_cursor;
    if (cur.pos != nullptr) {
        ProbeEvent& e = *cur.pos++;
        e.aux = site.id;
        e.kind = ProbeEvent::kBlockBranch;
        e.flags = direction ? 1 : 0;
        if (cur.pos == cur.end) {
            detail::flushBatch();
        }
        return;
    }
    g_sink->onBlock(site);
    g_sink->onBranch(site, direction);
}

/** Emits a data-load event. */
inline void
load(uint64_t addr, uint32_t bytes)
{
    if (g_sink == nullptr) {
        return;
    }
    detail::BatchCursor& cur = detail::g_cursor;
    if (cur.pos != nullptr) {
        ProbeEvent& e = *cur.pos++;
        e.addr = addr;
        e.aux = bytes;
        e.kind = ProbeEvent::kLoad;
        if (cur.pos == cur.end) {
            detail::flushBatch();
        }
        return;
    }
    g_sink->onLoad(addr, bytes);
}

/** Emits a data-store event. */
inline void
store(uint64_t addr, uint32_t bytes)
{
    if (g_sink == nullptr) {
        return;
    }
    detail::BatchCursor& cur = detail::g_cursor;
    if (cur.pos != nullptr) {
        ProbeEvent& e = *cur.pos++;
        e.addr = addr;
        e.aux = bytes;
        e.kind = ProbeEvent::kStore;
        if (cur.pos == cur.end) {
            detail::flushBatch();
        }
        return;
    }
    g_sink->onStore(addr, bytes);
}

/**
 * Deterministic simulated-address allocator for workload data structures.
 *
 * Host pointer values vary run to run; every probed buffer instead reserves
 * a range here so data-cache behaviour is exactly reproducible. Addresses
 * are 64-byte aligned and dense, mimicking a heap without randomization.
 */
class SimArena
{
  public:
    /** Base virtual address of the simulated heap. */
    static constexpr uint64_t kHeapBase = 0x100000000ull;

    /** Reserves `bytes` and returns the range's base address.
     *  `align` must be a power of two; an allocation that would wrap the
     *  64-bit simulated address space is an invariant violation. */
    uint64_t
    alloc(uint64_t bytes, uint64_t align = 64)
    {
        VT_ASSERT(align != 0 && (align & (align - 1)) == 0,
                  "arena alignment must be a power of two, got ", align);
        const uint64_t base = (next_ + align - 1) & ~(align - 1);
        VT_ASSERT(base >= next_,
                  "arena alignment overflows the simulated address space");
        VT_ASSERT(bytes <= UINT64_MAX - base,
                  "arena allocation of ", bytes,
                  " bytes overflows the simulated address space");
        next_ = base + bytes;
        return base;
    }

    /** Returns the allocator to an empty heap (new measurement run). */
    void reset() { next_ = kHeapBase; }

    /** Bytes allocated since the last reset. */
    uint64_t used() const { return next_ - kHeapBase; }

  private:
    uint64_t next_ = kHeapBase;
};

/** The simulated heap of the calling thread (one arena per thread, so
 *  concurrent runs allocate identical, non-interfering address ranges). */
SimArena& arena();

} // namespace vtrans::trace

/**
 * Declares (once) a static code site bound to a local reference.
 * Usage: VT_SITE(site, "me.sad.row", 48, 10, Block);
 */
#define VT_SITE(var, name, bytes, instrs, kindtag) \
    static ::vtrans::trace::CodeSite& var = \
        ::vtrans::trace::registry().define( \
            name, bytes, instrs, ::vtrans::trace::SiteKind::kindtag)

#endif // VTRANS_TRACE_PROBE_H_
