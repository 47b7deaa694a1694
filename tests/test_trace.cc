/**
 * @file
 * Tests of the probe bus: the site table and default code layout,
 * synthetic site registration, batched event delivery, raw branch
 * directions and layout values, and the simulated-address arena.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chunk/chunk.h"
#include "codec/decoder.h"
#include "codec/loopflags.h"
#include "codec/params.h"
#include "codec/strategies/strategies.h"
#include "core/workload.h"
#include "layout/profile.h"
#include "layout/relayout.h"
#include "trace/probe.h"
#include "test_site.h"

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

/** (name, default address) of every site a default-model run of any
 *  preset executes: the layout every default-model result depends on.
 *  A reordered or resized table row moves these and fails loudly. */
const std::vector<std::pair<std::string, uint64_t>> kDefaultPathLayout = {
    {"lookahead.intra8", 0x400000},
    {"lookahead.cand", 0x400820},
    {"lookahead.sad8", 0x400ef0},
    {"bitstream.write.byte", 0x401770},
    {"bitstream.write.ue", 0x401ea0},
    {"rc.startframe", 0x402630},
    {"enc.mbvar", 0x402eb0},
    {"rc.mbqp", 0x4036a0},
    {"intra.pred16", 0x403e60},
    {"intra.gather16", 0x404800},
    {"intra.sad16", 0x404fc0},
    {"intra.cmp16", 0x4057b0},
    {"intra.pred4", 0x405e38},
    {"intra.sad4", 0x4066b8},
    {"intra.cmp4", 0x406e18},
    {"enc.mode.i4cmp", 0x4074a0},
    {"enc.residual4", 0x407b40},
    {"dct.forward4x4", 0x408300},
    {"trellis.quant4x4", 0x408d00},
    {"trellis.state", 0x409ac0},
    {"trellis.cmp", 0x40a220},
    {"dct.dequant4x4", 0x40a8c0},
    {"dct.inverse4x4", 0x40b140},
    {"enc.recon4", 0x40bb40},
    {"intra.predchroma", 0x40c2d0},
    {"enc.residual4c", 0x40cac0},
    {"enc.writembheader", 0x40d280},
    {"entropy.sig", 0x40db00},
    {"enc.copypred", 0x40e1a0},
    {"deblock.vedge.rows16", 0x40e8d0},
    {"deblock.hedge.cols16", 0x40f090},
    {"deblock.chroma.v", 0x40f850},
    {"deblock.chroma.h", 0x40ffe0},
    {"rc.endframe", 0x410770},
    {"me.refloop", 0x410ed0},
    {"me.seed", 0x4115d0},
    {"pixel.sad.rows8", 0x411d30},
    {"pixel.sad.early_exit", 0x4125e0},
    {"me.cand.cmp", 0x412c68},
    {"me.hex.iter", 0x413308},
    {"me.hex.move", 0x413a68},
    {"pixel.sadsub.rows4", 0x4140f0},
    {"pixel.sadsub.early_exit", 0x4148e0},
    {"me.subpel.iter", 0x414f68},
    {"me.subpel.cmp", 0x4156f8},
    {"me.refloop.cmp", 0x415d98},
    {"enc.mode.fwdcmp", 0x416438},
    {"enc.mode.p8cmp", 0x416ad8},
    {"pixel.mc.row", 0x417178},
    {"pixel.mcchroma.row", 0x4178d8},
    {"enc.mode.skip", 0x418020},
    {"enc.mode.bwdcmp", 0x4186c0},
    {"pixel.average", 0x418d60},
    {"enc.mode.bicmp", 0x419490},
    {"bitstream.read.byte", 0x419b30},
    {"bitstream.read.ue", 0x41a260},
    {"dec.frameheader", 0x41a9f0},
    {"dec.parseblock", 0x41b1b0},
    {"dec.coeff", 0x41b9d0},
    {"dec.recon4", 0x41c0a0},
    {"dec.copypred", 0x41c830},
    {"dct.quant4x4", 0x41cf60},
    {"me.dia.iter", 0x41d870},
    {"me.dia.move", 0x41dfa0},
    {"pixel.satd4x4", 0x41e628},
    {"deblock.filter", 0x41ef68},
    {"deblock.filter.h", 0x41f6c8},
    {"me.umh.cross", 0x41fe28},
    {"me.umh.square", 0x4205e8},
    {"me.umh.ring", 0x420d78},
    {"me.esa.row", 0x421568},
    {"me.tesa.cmp", 0x421cc8},
};

/** Every site's (name, address), in id order. */
std::vector<std::pair<std::string, uint64_t>>
layoutSnapshot()
{
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const CodeSite* site : trace::registry().sites()) {
        out.emplace_back(site->name, site->address);
    }
    return out;
}

// First in this file, so it sees the registry before any codec code ran
// (and before any other test appended a synthetic site).
TEST(Trace, SiteTableIsTheLayout)
{
    const auto& sites = trace::registry().sites();
    ASSERT_EQ(sites.size(), trace::kTableSites);
    uint64_t addr = trace::SiteRegistry::kTextBase;
    for (size_t i = 0; i < trace::kTableSites; ++i) {
        const trace::SiteRow& row = trace::kSiteTable[i];
        const CodeSite& site = *sites[i];
        EXPECT_EQ(static_cast<size_t>(row.id), i) << row.name;
        EXPECT_EQ(site.id, i) << row.name;
        EXPECT_EQ(&trace::registry().site(row.id), &site) << row.name;
        EXPECT_EQ(site.name, row.name);
        EXPECT_EQ(site.bytes, row.bytes * trace::SiteRegistry::kCodeScale)
            << row.name;
        EXPECT_EQ(site.instructions, row.instructions) << row.name;
        EXPECT_EQ(site.kind, row.kind) << row.name;
        EXPECT_EQ(site.address, addr) << row.name;
        addr += site.bytes + trace::SiteRegistry::kDefaultColdPadding;
    }
    EXPECT_EQ(trace::registry().defaultSpan(),
              addr - trace::SiteRegistry::kTextBase);

    const auto before = layoutSnapshot();
    ASSERT_GE(before.size(), kDefaultPathLayout.size());
    for (size_t i = 0; i < kDefaultPathLayout.size(); ++i) {
        EXPECT_EQ(before[i], kDefaultPathLayout[i]) << "site " << i;
    }

    // Every codec path registers nothing: each preset under both kernel
    // models, both loop restructurings, CBR, and a chunk split + stitch.
    auto run = [](const codec::EncoderParams& params,
                  const core::Binary& binary = {}) {
        core::RunConfig cfg;
        cfg.video = "cat";
        cfg.seconds = 0.12;
        cfg.params = params;
        cfg.binary = binary;
        core::runNative(cfg);
    };
    for (auto model :
         {codec::KernelModel::Scalar, codec::KernelModel::Vector}) {
        core::Binary binary;
        binary.kernels = model;
        for (const auto& preset : codec::presetNames()) {
            run(codec::presetParams(preset), binary);
        }
    }
    core::Binary restructured;
    restructured.loops = {true, true};
    run(codec::presetParams("medium"), restructured);
    codec::EncoderParams cbr = codec::presetParams("medium");
    cbr.rc = codec::RateControl::CBR;
    run(cbr);
    core::RunConfig chunk_cfg;
    chunk_cfg.video = "cat";
    chunk_cfg.seconds = 0.12;
    chunk_cfg.params = codec::presetParams("ultrafast");
    chunk_cfg.keep_output = true;
    const auto plan =
        core::cachedSplit(chunk_cfg.video, chunk_cfg.seconds,
                          chunk_cfg.params, chunk::ChunkOptions{1, 0});
    EXPECT_GT(plan->segments.size(), 1u);
    std::vector<core::RunResult> chunks;
    for (const chunk::Segment& segment : plan->segments) {
        chunks.push_back(
            core::runInstrumentedChunk({&segment.source}, chunk_cfg));
    }
    std::vector<const std::vector<uint8_t>*> outputs;
    for (const core::RunResult& c : chunks) {
        outputs.push_back(&c.output);
    }
    EXPECT_FALSE(codec::decode(chunk::stitch(outputs)).frames.empty());

    EXPECT_EQ(layoutSnapshot(), before);
}

TEST(Probe, NoSinkMeansNoDispatch)
{
    trace::setSink(nullptr);
    VT_TEST_SITE(site, "test.nosink", 32, 4, Block);
    // Must not crash; nothing observable happens.
    trace::block(site);
    trace::load(0x1000, 8);
}

TEST(Probe, EventsReachSink)
{
    RecordingSink sink;
    trace::setSink(&sink);
    VT_TEST_SITE(site, "test.events", 32, 4, Block);
    VT_TEST_SITE(br, "test.events.branch", 8, 1, Branch);
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
    // Polarity belongs to a layout value, not to the emitted stream: the
    // bus delivers the direction the program took, and a layout that
    // inverts the site says so without touching the site.
    VT_TEST_SITE(br, "test.invert", 8, 1, Branch);
    trace::CodeLayout inverted;
    for (const CodeSite* site : trace::registry().sites()) {
        inverted.sites.push_back({site->address, false});
    }
    inverted.sites[br.id] = {br.address + 4096, true};

    RecordingSink sink;
    trace::setSink(&sink);
    trace::branch(br, true);
    trace::branch(br, false);
    trace::setSink(nullptr);
    ASSERT_EQ(sink.events.size(), 4u);
    EXPECT_EQ(sink.events[1].b, 1u) << "taken arrives as taken";
    EXPECT_EQ(sink.events[3].b, 0u) << "not taken arrives as not taken";

    EXPECT_TRUE(inverted.at(br).invert);
    EXPECT_EQ(inverted.at(br).address, br.address + 4096);
    // The empty layout is the default one.
    EXPECT_FALSE(trace::CodeLayout{}.at(br).invert);
    EXPECT_EQ(trace::CodeLayout{}.at(br).address, br.address);
    // A site defined after the layout was built keeps its default
    // placement in it.
    VT_TEST_SITE(later, "test.invert.later", 8, 1, Branch);
    ASSERT_GE(later.id, inverted.sites.size());
    EXPECT_EQ(inverted.at(later).address, later.address);
    EXPECT_FALSE(inverted.at(later).invert);
}

TEST(Probe, SitesHaveDistinctAddressesWithColdPadding)
{
    auto& reg = trace::registry();
    VT_TEST_SITE(a, "test.layout.a", 64, 8, Block);
    VT_TEST_SITE(b, "test.layout.b", 64, 8, Block);
    EXPECT_NE(a.address, b.address);
    // Registration order is not guaranteed adjacent (other tests register
    // sites too), but every site must be inside the default span.
    EXPECT_GE(a.address, trace::SiteRegistry::kTextBase);
    EXPECT_LT(a.address + a.bytes,
              trace::SiteRegistry::kTextBase + reg.defaultSpan());
}

TEST(Probe, PerThreadAttachmentDoesNotCrossTalk)
{
    // Sinks are thread-local: a sink attached on one thread must never
    // observe another thread's events, and attaching/detaching mid-run
    // on one thread must not disturb a sibling's sink.
    VT_TEST_SITE(site, "test.probe.threads", 16, 2, Block);

    RecordingSink main_sink;
    trace::setSink(&main_sink);

    RecordingSink worker_sink;
    // `site` is a static reference: the lambda names it directly.
    std::thread worker([&worker_sink] {
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
    VT_TEST_SITE(site, "test.batch.block", 32, 4, Block);
    VT_TEST_SITE(br, "test.batch.branch", 8, 1, Branch);
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
    VT_TEST_SITE(br, "test.batch.fused", 8, 1, Branch);
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

TEST(BatchPipeline, FusedRecordCarriesRawDirection)
{
    // A profile-guided layout that inverts the branch exists in the
    // process; the emitted record still carries the raw direction.
    VT_TEST_SITE(br, "test.batch.fusedpolarity", 8, 1, Branch);
    layout::ProfileCollector profile;
    trace::setSink(&profile);
    for (int i = 0; i < 10; ++i) {
        trace::branch(br, true);
    }
    trace::setSink(nullptr);
    const auto relayout = layout::applyProfileGuidedLayout(profile);
    ASSERT_TRUE(relayout.layout->at(br).invert);

    BatchRecordingSink sink;
    trace::setSink(&sink, 16);
    trace::branch(br, true);
    trace::branch(br, false);
    trace::setSink(nullptr);
    ASSERT_EQ(sink.records.size(), 2u);
    EXPECT_EQ(sink.records[0].flags & 1, 1);
    EXPECT_EQ(sink.records[1].flags & 1, 0);
}

TEST(BatchPipeline, FullBufferFlushesAndRefills)
{
    VT_TEST_SITE(site, "test.batch.wrap", 16, 2, Block);
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
    VT_TEST_SITE(site, "test.batch.flush", 16, 2, Block);
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
    VT_TEST_SITE(site, "test.batch.switch", 16, 2, Block);
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
    VT_TEST_SITE(site, "test.batch.tiny", 16, 2, Block);
    VT_TEST_SITE(br, "test.batch.tinybr", 8, 1, Branch);
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
    VT_TEST_SITE(site, "test.batch.threads", 16, 2, Block);
    VT_TEST_SITE(br, "test.batch.threadsbr", 8, 1, Branch);

    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::vector<std::vector<RecordingSink::Event>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        // `site` and `br` are static references, named without capture.
        threads.emplace_back([&seen, t] {
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
