/**
 * @file
 * Tests of the probe bus: site registration, default code layout, batched
 * event delivery, polarity inversion, and the simulated-address arena.
 */

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "trace/probe.h"

namespace vtrans {
namespace {

using trace::CodeSite;
using trace::ProbeSink;
using trace::SiteKind;

/** Records every event it sees. */
class RecordingSink : public ProbeSink
{
  public:
    struct Event
    {
        char kind;
        uint64_t a;
        uint64_t b;

        bool operator==(const Event&) const = default;
    };
    std::vector<Event> events;

    void onBlock(const CodeSite& site) override
    {
        events.push_back({'B', site.id, 0});
    }
    void onBranch(const CodeSite& site, bool taken) override
    {
        events.push_back({'J', site.id, taken ? 1ull : 0ull});
    }
    void onLoad(uint64_t addr, uint32_t bytes) override
    {
        events.push_back({'L', addr, bytes});
    }
    void onStore(uint64_t addr, uint32_t bytes) override
    {
        events.push_back({'S', addr, bytes});
    }
};

TEST(Probe, NoSinkMeansNoDispatch)
{
    trace::setSink(nullptr);
    VT_SITE(site, "test.nosink", 32, 4, Block);
    // Must not crash; nothing observable happens.
    trace::block(site);
    trace::load(0x1000, 8);
}

TEST(Probe, EventsReachSink)
{
    RecordingSink sink;
    trace::setSink(&sink);
    VT_SITE(site, "test.events", 32, 4, Block);
    VT_SITE(br, "test.events.branch", 8, 1, Branch);
    trace::block(site);
    trace::load(0x2000, 16);
    trace::store(0x3000, 4);
    trace::branch(br, true);
    trace::setSink(nullptr);

    ASSERT_EQ(sink.events.size(), 5u); // branch() emits block + branch
    EXPECT_EQ(sink.events[0].kind, 'B');
    EXPECT_EQ(sink.events[1].kind, 'L');
    EXPECT_EQ(sink.events[1].a, 0x2000u);
    EXPECT_EQ(sink.events[2].kind, 'S');
    EXPECT_EQ(sink.events[3].kind, 'B');
    EXPECT_EQ(sink.events[4].kind, 'J');
    EXPECT_EQ(sink.events[4].b, 1u);
}

TEST(Probe, BranchPolarityInversion)
{
    RecordingSink sink;
    VT_SITE(br, "test.invert", 8, 1, Branch);
    br.invert = false;
    trace::setSink(&sink);
    trace::branch(br, true);
    br.invert = true;
    trace::branch(br, true);
    trace::setSink(nullptr);
    br.invert = false;

    ASSERT_EQ(sink.events.size(), 4u);
    EXPECT_EQ(sink.events[1].b, 1u) << "uninverted taken";
    EXPECT_EQ(sink.events[3].b, 0u) << "inverted taken -> not taken";
}

TEST(Probe, SitesHaveDistinctAddressesWithColdPadding)
{
    auto& reg = trace::registry();
    VT_SITE(a, "test.layout.a", 64, 8, Block);
    VT_SITE(b, "test.layout.b", 64, 8, Block);
    EXPECT_NE(a.address, b.address);
    // Registration order is not guaranteed adjacent (other tests register
    // sites too), but every site must be inside the default span.
    EXPECT_GE(a.address, trace::SiteRegistry::kTextBase);
    EXPECT_LT(a.address + a.bytes,
              trace::SiteRegistry::kTextBase + reg.defaultSpan());
}

TEST(Probe, ResetLayoutRestoresDefaults)
{
    auto& reg = trace::registry();
    VT_SITE(a, "test.layoutreset.a", 64, 8, Block);
    const uint64_t original = a.address;
    a.address = 0xdead;
    a.invert = true;
    reg.resetLayout();
    // resetLayout re-lays out all sites in registration order; the site
    // must again live at its original default position.
    EXPECT_EQ(a.address, original);
    EXPECT_FALSE(a.invert);
}

TEST(Probe, PerThreadAttachmentDoesNotCrossTalk)
{
    // Sinks are thread-local: a sink attached on one thread must never
    // observe another thread's events, and attaching/detaching mid-run
    // on one thread must not disturb a sibling's sink.
    VT_SITE(site, "test.probe.threads", 16, 2, Block);

    RecordingSink main_sink;
    trace::setSink(&main_sink);

    RecordingSink worker_sink;
    std::thread worker([&worker_sink, &site] {
        // This thread starts with no sink; emitting is a no-op.
        trace::block(site);
        trace::setSink(&worker_sink);
        trace::block(site);
        trace::block(site);
        trace::setSink(nullptr); // Detach mid-run...
        trace::block(site);      // ...swallowed, not cross-delivered.
    });
    worker.join();

    trace::block(site);
    trace::setSink(nullptr);

    EXPECT_EQ(worker_sink.events.size(), 2u);
    EXPECT_EQ(main_sink.events.size(), 1u);
}

TEST(Arena, SequentialAlignedAllocation)
{
    trace::SimArena arena;
    const uint64_t p1 = arena.alloc(100);
    const uint64_t p2 = arena.alloc(10);
    EXPECT_EQ(p1 % 64, 0u);
    EXPECT_EQ(p2 % 64, 0u);
    EXPECT_GE(p2, p1 + 100);
    EXPECT_GT(arena.used(), 0u);
    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_EQ(arena.alloc(8), trace::SimArena::kHeapBase);
}

TEST(Arena, NonPowerOfTwoAlignmentIsFatal)
{
    trace::SimArena arena;
    EXPECT_DEATH(arena.alloc(64, 48), "power of two");
    EXPECT_DEATH(arena.alloc(64, 0), "power of two");
}

TEST(Arena, OverflowingAllocationIsFatal)
{
    trace::SimArena arena;
    // A byte count that would wrap the 64-bit simulated address space.
    EXPECT_DEATH(arena.alloc(UINT64_MAX - 16), "overflows");
    // An alignment round-up that would wrap.
    arena.alloc(UINT64_MAX - trace::SimArena::kHeapBase - (1u << 20));
    EXPECT_DEATH(arena.alloc(8, 1ull << 63), "overflows");
}

// ---- Batched pipeline ------------------------------------------------------

/** Captures raw batch records (overrides onBatch, no replay). */
class BatchRecordingSink : public ProbeSink
{
  public:
    std::vector<trace::ProbeEvent> records;
    size_t flushes = 0;

    void onBlock(const CodeSite&) override { ADD_FAILURE(); }
    void onBranch(const CodeSite&, bool) override { ADD_FAILURE(); }
    void onLoad(uint64_t, uint32_t) override { ADD_FAILURE(); }
    void onStore(uint64_t, uint32_t) override { ADD_FAILURE(); }
    void
    onBatch(const trace::ProbeEvent* events, size_t count) override
    {
        ++flushes;
        records.insert(records.end(), events, events + count);
    }
};

TEST(BatchPipeline, DefaultReplayDeliversIdenticalEventSequence)
{
    VT_SITE(site, "test.batch.block", 32, 4, Block);
    VT_SITE(br, "test.batch.branch", 8, 1, Branch);
    auto emit = [&] {
        trace::block(site);
        trace::load(0x2000, 16);
        trace::store(0x3000, 4);
        trace::branch(br, true);
        trace::branch(br, false);
        trace::load(0x4000, 8);
    };

    RecordingSink one;
    trace::setSink(&one, 1);
    emit();
    trace::setSink(nullptr);
    ASSERT_EQ(one.events.size(), 8u); // Each branch replays as two calls.

    // Tiny capacities force mid-stream wraparound flushes; the sink must
    // still observe the identical sequence through the default replay.
    for (uint32_t capacity : {2u, 3u, 5u, 256u}) {
        RecordingSink batched;
        trace::setSink(&batched, capacity);
        emit();
        trace::setSink(nullptr); // Flushes the tail.
        EXPECT_TRUE(batched.events == one.events) << "capacity " << capacity;
    }
}

TEST(BatchPipeline, BranchIsOneFusedRecord)
{
    VT_SITE(br, "test.batch.fused", 8, 1, Branch);
    BatchRecordingSink sink;
    trace::setSink(&sink, 16);
    trace::branch(br, true);
    trace::branch(br, false);
    trace::setSink(nullptr);

    ASSERT_EQ(sink.records.size(), 2u)
        << "block+branch must fuse into one record";
    EXPECT_EQ(sink.records[0].kind, trace::ProbeEvent::kBlockBranch);
    EXPECT_EQ(sink.records[0].aux, br.id);
    EXPECT_EQ(sink.records[0].flags & 1, 1);
    EXPECT_EQ(sink.records[1].flags & 1, 0);
}

TEST(BatchPipeline, FusedRecordCarriesPostPolarityDirection)
{
    VT_SITE(br, "test.batch.fusedpolarity", 8, 1, Branch);
    BatchRecordingSink sink;
    br.invert = true;
    trace::setSink(&sink, 16);
    trace::branch(br, true); // Inverted: delivered direction is false.
    trace::setSink(nullptr);
    br.invert = false;

    ASSERT_EQ(sink.records.size(), 1u);
    EXPECT_EQ(sink.records[0].flags & 1, 0);
}

TEST(BatchPipeline, FullBufferFlushesAndRefills)
{
    VT_SITE(site, "test.batch.wrap", 16, 2, Block);
    BatchRecordingSink sink;
    trace::setSink(&sink, 4);
    for (int i = 0; i < 10; ++i) {
        trace::block(site);
    }
    EXPECT_EQ(sink.flushes, 2u); // Two full buffers so far...
    EXPECT_EQ(sink.records.size(), 8u);
    trace::setSink(nullptr);     // ...and the 2-event tail on detach.
    EXPECT_EQ(sink.flushes, 3u);
    EXPECT_EQ(sink.records.size(), 10u);
}

TEST(BatchPipeline, ExplicitFlushDeliversPendingEvents)
{
    VT_SITE(site, "test.batch.flush", 16, 2, Block);
    BatchRecordingSink sink;
    trace::setSink(&sink, 64);
    trace::block(site);
    trace::block(site);
    EXPECT_EQ(sink.records.size(), 0u) << "buffered, not yet delivered";
    trace::flush();
    EXPECT_EQ(sink.records.size(), 2u);
    trace::flush(); // Empty flush is a no-op, not a zero-length batch.
    EXPECT_EQ(sink.flushes, 1u);
    trace::setSink(nullptr);
    EXPECT_EQ(sink.flushes, 1u) << "nothing pending on detach";
}

TEST(BatchPipeline, SwitchingSinksFlushesToTheOldSink)
{
    VT_SITE(site, "test.batch.switch", 16, 2, Block);
    BatchRecordingSink old_sink;
    RecordingSink new_sink;
    trace::setSink(&old_sink, 64);
    trace::block(site);
    trace::setSink(&new_sink); // Pending event belongs to old_sink.
    trace::block(site);
    trace::setSink(nullptr);

    EXPECT_EQ(old_sink.records.size(), 1u);
    EXPECT_EQ(new_sink.events.size(), 1u);
}

/** Records the replayed events and counts what the bus delivers: the size
 *  of each onBatch call, and how many recorded events came through one. */
class BatchCountingSink : public RecordingSink
{
  public:
    std::vector<size_t> batch_sizes;
    size_t replayed = 0;

    void
    onBatch(const trace::ProbeEvent* records, size_t count) override
    {
        batch_sizes.push_back(count);
        const size_t before = events.size();
        ProbeSink::onBatch(records, count);
        replayed += events.size() - before;
    }
};

TEST(BatchPipeline, CapacityAtMostOneIsPerEventDispatch)
{
    // A capacity of 0 or 1 is a batch of one, not a second delivery path:
    // every emit reaches onBatch at once, as one record, and the sink sees
    // the same sequence as at the default capacity.
    VT_SITE(site, "test.batch.tiny", 16, 2, Block);
    VT_SITE(br, "test.batch.tinybr", 8, 1, Branch);
    const std::vector<std::function<void()>> emits{
        [&] { trace::block(site); },
        [&] { trace::load(0x2000, 16); },
        [&] { trace::branch(br, true); },
        [&] { trace::store(0x3000, 4); },
    };

    BatchCountingSink reference;
    trace::setSink(&reference); // The default capacity.
    for (const auto& emit : emits) {
        emit();
    }
    EXPECT_TRUE(reference.batch_sizes.empty()) << "buffered until detach";
    trace::setSink(nullptr);
    EXPECT_EQ(reference.batch_sizes, std::vector<size_t>{emits.size()});
    EXPECT_EQ(reference.replayed, reference.events.size());

    for (uint32_t capacity : {0u, 1u}) {
        BatchCountingSink sink;
        trace::setSink(&sink, capacity);
        for (size_t i = 0; i < emits.size(); ++i) {
            emits[i]();
            EXPECT_EQ(sink.batch_sizes.size(), i + 1)
                << "capacity " << capacity << " must deliver every emit";
        }
        trace::setSink(nullptr);
        EXPECT_EQ(sink.batch_sizes, std::vector<size_t>(emits.size(), 1))
            << "capacity " << capacity;
        EXPECT_EQ(sink.replayed, sink.events.size())
            << "every event must arrive through onBatch";
        EXPECT_TRUE(sink.events == reference.events)
            << "capacity " << capacity;
    }
}

TEST(BatchPipeline, ThreadsBatchIndependently)
{
    // Each thread owns its cursor and buffer: concurrent batched runs
    // must neither cross-deliver nor corrupt each other (this is the
    // TSan coverage of the batched pipeline's thread-local state).
    VT_SITE(site, "test.batch.threads", 16, 2, Block);
    VT_SITE(br, "test.batch.threadsbr", 8, 1, Branch);

    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::vector<std::vector<RecordingSink::Event>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&seen, t, &site, &br] {
            RecordingSink sink;
            // Different capacities per thread: wraparound at different
            // points, same delivered stream.
            trace::setSink(&sink, 2 + static_cast<uint32_t>(t) * 31);
            for (int i = 0; i < kIters; ++i) {
                trace::block(site);
                trace::load(0x1000 + static_cast<uint64_t>(i) * 64, 16);
                trace::branch(br, i % 3 != 0);
                trace::store(0x9000 + static_cast<uint64_t>(i) * 64, 8);
            }
            trace::setSink(nullptr);
            seen[t] = std::move(sink.events);
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(seen[t].size(), static_cast<size_t>(kIters) * 5) << t;
        EXPECT_TRUE(seen[t] == seen[0]) << t;
    }
}

} // namespace
} // namespace vtrans
