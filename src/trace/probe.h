#ifndef VTRANS_TRACE_PROBE_H_
#define VTRANS_TRACE_PROBE_H_

/**
 * @file
 * The probe bus: the contract between instrumented workload code (the
 * codec's hot kernels) and observers (the microarchitecture simulator, the
 * AutoFDO-style profile collector).
 *
 * Instrumented code names CodeSites from the site table (trace/sites.h) —
 * symbolic basic blocks with a size in code bytes, an instruction count,
 * and a mutable layout address — and emits dynamic events through the
 * free functions block()/branch()/load()/store(). When no sink is
 * attached the per-event cost is a single predictable branch, so the
 * codec can also run "natively".
 *
 * The bus has one delivery path: an attached sink gets a thread-local batch
 * of compact `ProbeEvent` PODs, and each emit appends one record. A full
 * batch (and the pending tail on flush()/detach) goes to
 * `ProbeSink::onBatch()` in emission order. A capacity of 0 or 1 is a
 * batch of one, delivered on every emit. A conditional branch is one fused
 * block+branch record (`ProbeEvent::kBlockBranch`). The default `onBatch`
 * replays the records through the per-event virtuals, so a sink that only
 * implements those sees the same event sequence at every capacity.
 *
 * A record carries a site id, not the site's layout address: sinks read
 * `CodeSite::address` when the batch is delivered. Relayout therefore runs
 * only while no sink is attached.
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
#include "trace/sites.h"

namespace vtrans::trace {

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
 * applied (what the default replay hands to `onBranch`).
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
     * A block of events in emission order: the only call the bus makes.
     *
     * The default implementation replays the per-event virtuals (a fused
     * kBlockBranch record replays as onBlock then onBranch), so a sink may
     * implement just those. Performance-critical sinks override this to
     * consume the records directly and skip the per-event virtual calls.
     */
    virtual void onBatch(const ProbeEvent* events, size_t count);
};

/**
 * The global table of code sites plus the default code layout.
 *
 * The registry is built from the site table (trace/sites.h) on first
 * use, before any instrumented code can emit, so every table site has a
 * fixed id and default address in every process. Tests append synthetic
 * sites with define(); they take ids and addresses after the table.
 * Appending and layout reset are mutex-guarded; site storage is stable,
 * so readers need no lock. The default layout emulates a compiled binary
 * without profile feedback: blocks appear in table order, separated by
 * cold-code padding, so the hot working set is diluted across many
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

    /** Builds the registry from the site table. */
    SiteRegistry();

    /** Appends a synthetic site after every table site and assigns its
     *  default-layout address. Instrumented code uses table sites. */
    CodeSite& define(std::string name, uint32_t bytes, uint32_t instructions,
                     SiteKind kind);

    /** All registered sites (stable storage; index == id). */
    const std::vector<CodeSite*>& sites() const { return sites_; }

    /** Looks up a site by id. */
    CodeSite& site(uint32_t id) { return *sites_.at(id); }

    /** Looks up a table site. */
    CodeSite& site(SiteId id) { return *sites_[static_cast<uint32_t>(id)]; }

    /** Restores default-layout addresses and clears polarity flips. */
    void resetLayout();

    /** Total span of the default layout in bytes (footprint proxy). */
    uint64_t defaultSpan() const { return next_address_ - kTextBase; }

  private:
    std::mutex mu_; ///< Guards define() and layout reset.
    std::vector<CodeSite*> sites_;
    uint64_t next_address_ = kTextBase;
};

/** The process-wide site registry. */
SiteRegistry& registry();

/**
 * The currently attached sink (nullptr when tracing is off).
 *
 * Thread-local: each farm worker attaches its own core model and observes
 * only the events its own thread emits, so concurrent instrumented runs
 * never cross-talk.
 */
extern constinit thread_local ProbeSink* g_sink;

namespace detail {

/**
 * The calling thread's batch cursor: events append at `pos` within
 * [begin, end) and the batch goes to the sink when full. All null while
 * no sink is attached.
 */
struct BatchCursor
{
    ProbeEvent* pos = nullptr;
    ProbeEvent* end = nullptr;
    ProbeEvent* begin = nullptr;
};

extern constinit thread_local BatchCursor g_cursor;

/** Delivers the pending events of this thread's batch to the sink. */
void flushBatch();

} // namespace detail

/** Compiled-in batch capacity, chosen from the bench/microbench_probe
 *  capacity sweep (see BENCH_probe.json). */
inline constexpr uint32_t kDefaultProbeBatch = 256;

/**
 * Attaches a sink on this thread (replacing any); nullptr detaches.
 * Events accumulate in a thread-local batch of `batch_capacity` records
 * (0 counts as 1) and reach the sink through `ProbeSink::onBatch`. The
 * previous sink's pending events are delivered to it first, so no event
 * is ever lost.
 */
void setSink(ProbeSink* sink, uint32_t batch_capacity = kDefaultProbeBatch);

/** Delivers any pending events on this thread to the sink now.
 *  (Detaching with setSink(nullptr) flushes implicitly.) */
void flush();

/** The batch capacity instrumented runs attach with (core::runInstrumented,
 *  uarch::simulate): kDefaultProbeBatch. */
inline constexpr uint32_t
defaultBatchCapacity()
{
    return kDefaultProbeBatch;
}

/** True when a sink is attached on this thread. Kernels use this to skip
 *  probe-argument computation (simulated-address math) on native runs. */
inline bool
active()
{
    return g_sink != nullptr;
}

namespace detail {

/** Appends one record to this thread's batch (a sink is attached, so the
 *  cursor is valid) and delivers the batch when it is full. `fill` writes
 *  the fields the record's kind defines. */
template <typename Fill>
inline void
append(Fill fill)
{
    BatchCursor& cur = g_cursor;
    fill(*cur.pos++);
    if (cur.pos == cur.end) {
        flushBatch();
    }
}

} // namespace detail

/** Emits a basic-block execution event. */
inline void
block(const CodeSite& site)
{
    if (g_sink == nullptr) {
        return;
    }
    detail::append([&](ProbeEvent& e) {
        e.aux = site.id;
        e.kind = ProbeEvent::kBlock;
    });
}

/** Emits a block + conditional-branch event with layout polarity applied,
 *  as one fused record. */
inline void
branch(const CodeSite& site, bool taken)
{
    if (g_sink == nullptr) {
        return;
    }
    const bool direction = taken != site.invert;
    detail::append([&](ProbeEvent& e) {
        e.aux = site.id;
        e.kind = ProbeEvent::kBlockBranch;
        e.flags = direction ? 1 : 0;
    });
}

/** Emits a data-load event. */
inline void
load(uint64_t addr, uint32_t bytes)
{
    if (g_sink == nullptr) {
        return;
    }
    detail::append([&](ProbeEvent& e) {
        e.addr = addr;
        e.aux = bytes;
        e.kind = ProbeEvent::kLoad;
    });
}

/** Emits a data-store event. */
inline void
store(uint64_t addr, uint32_t bytes)
{
    if (g_sink == nullptr) {
        return;
    }
    detail::append([&](ProbeEvent& e) {
        e.addr = addr;
        e.aux = bytes;
        e.kind = ProbeEvent::kStore;
    });
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
 * Binds a local reference to a table site, resolved once.
 * Usage: VT_SITE(site, MeSeed);
 */
#define VT_SITE(var, id) \
    static ::vtrans::trace::CodeSite& var = \
        ::vtrans::trace::registry().site(::vtrans::trace::SiteId::id)

#endif // VTRANS_TRACE_PROBE_H_
