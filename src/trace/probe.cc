#include "trace/probe.h"

#include <algorithm>

#include "common/status.h"

namespace vtrans::trace {

constinit thread_local ProbeSink* g_sink = nullptr;

namespace detail {

constinit thread_local BatchCursor g_cursor;

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
    if (count > 0) {
        ProbeSink& sink = *g_sink;
        sink.onBatch(cur.begin, count);
    }
}

} // namespace detail

void
setSink(ProbeSink* sink, uint32_t batch_capacity)
{
    flush();
    g_sink = sink;
    if (sink == nullptr) {
        detail::g_cursor = detail::BatchCursor{};
        return;
    }
    const uint32_t capacity = std::max(batch_capacity, 1u);
    std::vector<ProbeEvent>& storage = detail::t_batch_storage;
    if (storage.size() < capacity) {
        storage.resize(capacity);
    }
    detail::g_cursor.begin = storage.data();
    detail::g_cursor.pos = storage.data();
    detail::g_cursor.end = storage.data() + capacity;
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
    // Built on first use (a function-local static, so construction is
    // thread-safe) and never destroyed: sites live for the whole process,
    // and a static destructor that ran first would leave the CodeSites
    // (and every VT_SITE reference to them) unowned at exit.
    static SiteRegistry* instance = new SiteRegistry;
    return *instance;
}

SimArena&
arena()
{
    thread_local SimArena instance;
    return instance;
}

SiteRegistry::SiteRegistry()
{
    for (const SiteRow& row : kSiteTable) {
        define(row.name, row.bytes, row.instructions, row.kind);
    }
}

CodeSite&
SiteRegistry::define(std::string name, uint32_t bytes, uint32_t instructions,
                     SiteKind kind)
{
    VT_ASSERT(bytes > 0, "code site must have non-zero size: ", name);
    std::lock_guard<std::mutex> lock(mu_);
    auto* site = new CodeSite{static_cast<uint32_t>(sites_.size()),
                              std::move(name), bytes * kCodeScale,
                              instructions, kind, next_address_};
    next_address_ += site->bytes + kDefaultColdPadding;
    sites_.push_back(site);
    return *site;
}

} // namespace vtrans::trace
