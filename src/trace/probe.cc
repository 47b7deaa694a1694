#include "trace/probe.h"

#include <atomic>
#include <cstdlib>

#include "common/status.h"

namespace vtrans::trace {

VTRANS_PROBE_TLS ProbeSink* g_sink = nullptr;

namespace detail {

VTRANS_PROBE_TLS BatchCursor g_cursor;

namespace {

/// Backing storage for this thread's batch buffer. Owned here (not in the
/// cursor) so the hot emit path only touches the three cursor pointers.
thread_local std::vector<ProbeEvent> t_batch_storage;

} // namespace

void
flushBatch()
{
    BatchCursor& cur = g_cursor;
    const size_t count = static_cast<size_t>(cur.pos - cur.begin);
    cur.pos = cur.begin;
    if (count > 0 && g_sink != nullptr) {
        g_sink->onBatch(cur.begin, count);
    }
}

} // namespace detail

namespace {

/// Sentinel meaning "not yet initialized from the environment".
constexpr uint32_t kBatchUnset = UINT32_MAX;

std::atomic<uint32_t> g_default_batch{kBatchUnset};

uint32_t
batchCapacityFromEnv()
{
    const char* env = std::getenv("VTRANS_PROBE_BATCH");
    if (env != nullptr && *env != '\0') {
        char* end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value >= 0 &&
            value < static_cast<long>(kBatchUnset)) {
            return static_cast<uint32_t>(value);
        }
    }
    return kDefaultProbeBatch;
}

} // namespace

uint32_t
defaultBatchCapacity()
{
    uint32_t value = g_default_batch.load(std::memory_order_relaxed);
    if (value == kBatchUnset) {
        value = batchCapacityFromEnv();
        g_default_batch.store(value, std::memory_order_relaxed);
    }
    return value;
}

void
setDefaultBatchCapacity(uint32_t capacity)
{
    VT_ASSERT(capacity != kBatchUnset, "batch capacity out of range");
    g_default_batch.store(capacity, std::memory_order_relaxed);
}

void
setSink(ProbeSink* sink)
{
    flush();
    g_sink = sink;
    detail::g_cursor = detail::BatchCursor{};
}

void
setSink(ProbeSink* sink, uint32_t batch_capacity)
{
    flush();
    g_sink = sink;
    if (sink != nullptr && batch_capacity >= 2) {
        std::vector<ProbeEvent>& storage = detail::t_batch_storage;
        if (storage.size() < batch_capacity) {
            storage.resize(batch_capacity);
        }
        detail::g_cursor.begin = storage.data();
        detail::g_cursor.pos = storage.data();
        detail::g_cursor.end = storage.data() + batch_capacity;
    } else {
        detail::g_cursor = detail::BatchCursor{};
    }
}

void
flush()
{
    if (detail::g_cursor.pos != nullptr) {
        detail::flushBatch();
    }
}

void
ProbeSink::onBatch(const ProbeEvent* events, size_t count)
{
    SiteRegistry& reg = registry();
    for (size_t i = 0; i < count; ++i) {
        const ProbeEvent& e = events[i];
        switch (e.kind) {
        case ProbeEvent::kBlock:
            onBlock(reg.site(e.aux));
            break;
        case ProbeEvent::kBlockBranch: {
            const CodeSite& site = reg.site(e.aux);
            onBlock(site);
            onBranch(site, (e.flags & 1) != 0);
            break;
        }
        case ProbeEvent::kLoad:
            onLoad(e.addr, e.aux);
            break;
        case ProbeEvent::kStore:
            onStore(e.addr, e.aux);
            break;
        default:
            VT_PANIC("corrupt probe event kind ", static_cast<int>(e.kind));
        }
    }
}

SiteRegistry&
registry()
{
    // Never destroyed: sites live for the whole process, and a static
    // destructor that ran first would leave the CodeSites (and every
    // VT_SITE reference to them) unowned at exit.
    static SiteRegistry* instance = new SiteRegistry;
    return *instance;
}

SimArena&
arena()
{
    thread_local SimArena instance;
    return instance;
}

CodeSite&
SiteRegistry::define(std::string name, uint32_t bytes, uint32_t instructions,
                     SiteKind kind)
{
    VT_ASSERT(bytes > 0, "code site must have non-zero size: ", name);
    std::lock_guard<std::mutex> lock(mu_);
    auto* site = new CodeSite;
    site->id = static_cast<uint32_t>(sites_.size());
    site->name = std::move(name);
    site->bytes = bytes * kCodeScale;
    site->instructions = instructions;
    site->kind = kind;
    site->address = next_address_;
    next_address_ += site->bytes + kDefaultColdPadding;
    sites_.push_back(site);
    return *site;
}

void
SiteRegistry::resetLayout()
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t addr = kTextBase;
    for (CodeSite* site : sites_) {
        site->address = addr;
        site->invert = false;
        addr += site->bytes + kDefaultColdPadding;
    }
    next_address_ = addr;
}

} // namespace vtrans::trace
