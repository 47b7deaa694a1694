/**
 * @file
 * Tests of the microarchitecture models: caches, TLB, branch predictors,
 * BTB, the core timing model's stall accounting, its pipelined stages
 * in both modes (helper threads and inline) with the core budget
 * that chooses between them, and the Table IV configurations.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>

#include "common/cores.h"
#include "common/rng.h"
#include "codec/params.h"
#include "codec/transcode.h"
#include "core/workload.h"
#include "farm/runlog.h"
#include "farm/server.h"
#include "obs/uarch.h"
#include "trace/probe.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/config.h"
#include "uarch/core.h"
#include "uarch/lru.h"
#include "uarch/ringbuf.h"
#include "uarch/stepping.h"
#include "uarch/tlb.h"
#include "test_site.h"

namespace vtrans {
namespace {

using namespace uarch;

// ---- Cache ---------------------------------------------------------------

TEST(Cache, HitAfterFill)
{
    Cache c("t", {1024, 2, 64});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1001)); // same line
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 1024B => 8 sets. Three lines mapping to set 0.
    Cache c("t", {1024, 2, 64});
    const uint64_t a = 0 * 8 * 64;      // set 0
    const uint64_t b = 1 * 8 * 64;      // set 0
    const uint64_t d = 2 * 8 * 64;      // set 0
    c.access(a);
    c.access(b);
    c.access(a);    // a more recent than b
    c.access(d);    // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, CapacityMissesOnBigWorkingSet)
{
    Cache c("t", {32 * 1024, 8, 64});
    // Touch 64 KiB twice: second pass must still miss (capacity).
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
            c.access(addr);
        }
    }
    EXPECT_GT(c.misses(), 1024u + 512u)
        << "second pass should keep missing on a 2x working set";
}

TEST(Cache, FitsWorkingSetAfterWarmup)
{
    Cache c("t", {32 * 1024, 8, 64});
    for (uint64_t addr = 0; addr < 16 * 1024; addr += 64) {
        c.access(addr);
    }
    const uint64_t warm_misses = c.misses();
    for (uint64_t addr = 0; addr < 16 * 1024; addr += 64) {
        EXPECT_TRUE(c.access(addr));
    }
    EXPECT_EQ(c.misses(), warm_misses);
}

TEST(Hierarchy, MissFallsThroughLevels)
{
    Cache l1d("L1d", {32768, 8, 64});
    OuterLevels outer({262144, 8, 64}, {8388608, 16, 64}, 0);
    const LatencyParams lat;
    // Cold: the L1 misses and no outer level holds the line, so memory
    // serves it at the memory latency on top of the L1's.
    EXPECT_FALSE(l1d.access(0x10000));
    const uint32_t cold = outer.walk(0x10000);
    EXPECT_EQ(cold, kServedMemory);
    EXPECT_EQ(lat.l1 + missLatency(cold, lat),
              LatencyParams{}.memory + LatencyParams{}.l1);

    // The miss filled every level on the way back: the L1 now hits at
    // the L1 latency, and so would the L2 behind it.
    EXPECT_TRUE(l1d.access(0x10000));
    EXPECT_EQ(outer.walk(0x10000), kServedL2);
}

TEST(Hierarchy, L4ServicesL3Misses)
{
    Cache l1d("L1d", {32768, 8, 64});
    OuterLevels outer({262144, 8, 64}, {1 << 20, 16, 64}, 16 << 20);
    const LatencyParams lat;
    ASSERT_TRUE(outer.hasL4());
    // Cold fill, all levels.
    EXPECT_FALSE(l1d.access(0x40000));
    EXPECT_EQ(outer.walk(0x40000), kServedMemory);
    // Evict from L1/L2/L3 by sweeping >L3-sized data; L4 keeps it.
    for (uint64_t a = 1 << 24; a < (1 << 24) + (2 << 20); a += 64) {
        if (!l1d.access(a)) {
            outer.walk(a);
        }
    }
    EXPECT_FALSE(l1d.access(0x40000));
    const uint32_t level = outer.walk(0x40000);
    EXPECT_EQ(level, kServedL4);
    EXPECT_EQ(lat.l1 + missLatency(level, lat),
              LatencyParams{}.l4 + LatencyParams{}.l1);
}

TEST(Hierarchy, MultiLineAccessTouchesBothLines)
{
    // The core model walks an access line by line through the
    // hierarchy: 8 bytes at 60 cross the line boundary at 64, so both
    // lines are looked up (and both miss the cold L1d).
    CoreModel model(baselineConfig());
    model.onLoad(60, 8);
    const CoreStats s = model.finish();
    EXPECT_EQ(s.l1d_accesses, 2u);
    EXPECT_EQ(s.l1d_misses, 2u);
}

// ---- TLB ----------------------------------------------------------------

TEST(Tlb, HitsSamePage)
{
    Tlb tlb(128);
    EXPECT_FALSE(tlb.access(0x400000));
    EXPECT_TRUE(tlb.access(0x400abc));
    EXPECT_FALSE(tlb.access(0x401000)); // next page
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, LargerTlbMissesLessOnWideCode)
{
    // A code footprint of 192 pages: fits in 256 entries, thrashes 128.
    auto missesFor = [](uint32_t entries) {
        Tlb tlb(entries);
        for (int pass = 0; pass < 4; ++pass) {
            for (uint64_t page = 0; page < 192; ++page) {
                tlb.access(0x400000 + page * 4096);
            }
        }
        return tlb.misses();
    };
    EXPECT_GT(missesFor(128), missesFor(256) * 2);
}

// ---- Branch predictors ------------------------------------------------------

TEST(Branch, PentiumMLearnsBias)
{
    PentiumMPredictor p;
    // Warm up a strongly taken branch.
    for (int i = 0; i < 16; ++i) {
        p.predict(0x4000);
        p.update(0x4000, true);
    }
    EXPECT_TRUE(p.predict(0x4000));
}

TEST(Branch, PentiumMLearnsAlternating)
{
    PentiumMPredictor p;
    int correct = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool taken = (i & 1) != 0;
        if (p.predict(0x8000) == taken) {
            ++correct;
        }
        p.update(0x8000, taken);
    }
    // The gshare component must capture the period-2 pattern eventually.
    EXPECT_GT(correct, 1700);
}

TEST(Branch, TageLearnsLongPattern)
{
    TagePredictor tage;
    PentiumMPredictor pm;
    // Period-24 pattern: beyond a 12-bit gshare's comfortable reach but
    // well within TAGE's 44-bit history table.
    auto pattern = [](int i) { return (i % 24) < 5; };
    int tage_correct = 0;
    int pm_correct = 0;
    for (int i = 0; i < 20000; ++i) {
        const bool taken = pattern(i);
        if (tage.predict(0xc000) == taken) {
            ++tage_correct;
        }
        tage.update(0xc000, taken);
        if (pm.predict(0xc000) == taken) {
            ++pm_correct;
        }
        pm.update(0xc000, taken);
    }
    EXPECT_GT(tage_correct, pm_correct)
        << "TAGE must beat the hybrid on long-period patterns";
    EXPECT_GT(tage_correct, 17000);
}

TEST(Branch, TageHandlesRandomGracefully)
{
    TagePredictor tage;
    Rng rng(3);
    int correct = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool taken = rng.chance(0.7);
        if (tage.predict(0x2000 + (i % 16) * 64) == taken) {
            ++correct;
        }
        tage.update(0x2000 + (i % 16) * 64, taken);
    }
    // On a 70% biased random stream, a good predictor approaches 70%.
    EXPECT_GT(correct, 6000);
}

TEST(Branch, FactoryRejectsUnknown)
{
    EXPECT_DEATH(makePredictor("nonsense"), "unknown branch predictor");
}

TEST(Btb, CapacityBehaviour)
{
    Btb btb(64, 4);
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t pc = 0; pc < 32; ++pc) {
            btb.access(0x400000 + pc * 4);
        }
    }
    // 32 distinct branches fit in 64 entries: second pass all hits.
    EXPECT_EQ(btb.misses(), 32u);
}

// ---- Packed LRU tag store ---------------------------------------------------

/** True LRU with one unbounded 64-bit stamp per access: the store
 *  LruSets replaced, kept as its oracle. */
class ReferenceLru
{
  public:
    ReferenceLru(uint32_t sets, uint32_t ways)
        : sets_(sets), ways_(ways), entries_(sets * ways)
    {
    }

    bool
    access(uint64_t key)
    {
        ++tick_;
        Entry* set = &entries_[(key % sets_) * ways_];
        Entry* invalid = nullptr;
        Entry* lru = set;
        for (uint32_t w = 0; w < ways_; ++w) {
            Entry& e = set[w];
            if (!e.valid) {
                if (invalid == nullptr) {
                    invalid = &e;
                }
                continue;
            }
            if (e.key == key) {
                e.stamp = tick_;
                return true;
            }
            if (e.stamp < lru->stamp) {
                lru = &e;
            }
        }
        Entry* victim = invalid != nullptr ? invalid : lru;
        *victim = {key, tick_, true};
        return false;
    }

    bool
    contains(uint64_t key) const
    {
        const Entry* set = &entries_[(key % sets_) * ways_];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].key == key) {
                return true;
            }
        }
        return false;
    }

  private:
    struct Entry
    {
        uint64_t key = 0;
        uint64_t stamp = 0;
        bool valid = false;
    };

    uint32_t sets_;
    uint32_t ways_;
    std::vector<Entry> entries_;
    uint64_t tick_ = 0;
};

/** With a stamp limit a few accesses above the set size, the packed store
 *  renumbers its 32-bit stamps constantly; every hit, miss and victim
 *  must still match unbounded 64-bit stamps. */
TEST(LruSets, ForcedStampWrapMatches64BitStamps)
{
    for (uint32_t ways : {1u, 2u, 4u, 16u}) {
        constexpr uint32_t kSets = 8;
        LruSets packed(kSets, ways, ways + 3);
        ReferenceLru ref(kSets, ways);
        Rng rng(0x1a5ull + ways);
        uint64_t key = 0;
        for (int i = 0; i < 200000; ++i) {
            // Repeats exercise the MRU fast path; the key space is three
            // times the capacity, so victims are chosen constantly.
            if (!rng.chance(0.3)) {
                key = 0x10000 + rng.below(kSets * ways * 3);
            }
            ASSERT_EQ(packed.access(key), ref.access(key))
                << "ways=" << ways << " access " << i;
        }
        for (uint64_t k = 0x10000; k < 0x10000 + kSets * ways * 3; ++k) {
            EXPECT_EQ(packed.contains(k), ref.contains(k)) << k;
        }
        EXPECT_EQ(packed.accesses(), 200000u);
    }
}

// ---- TAGE folded histories ---------------------------------------------------

/** The from-scratch fold the incremental registers replaced: `length`
 *  history bits folded into `bits` bits by XOR, restarting at every
 *  64-bit word. */
uint32_t
referenceFold(const uint64_t history[4], int bits, int length)
{
    uint64_t folded = 0;
    int consumed = 0;
    while (consumed < length) {
        const int word = consumed / 64;
        const int offset = consumed % 64;
        const int chunk = std::min({64 - offset, length - consumed, bits});
        folded ^= (history[word] >> offset) & ((1ull << chunk) - 1);
        consumed += chunk;
    }
    return static_cast<uint32_t>(folded & ((1ull << bits) - 1));
}

/** TAGE with every fold recomputed from the history words per branch:
 *  the predictor as it was before its fold registers, kept as the
 *  oracle of their prediction sequence. */
class ReferenceTage
{
  public:
    ReferenceTage() : base_(1u << 12, 2)
    {
        for (auto& t : tables_) {
            t.resize(kTableSize);
        }
    }

    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        const bool predicted = predict(pc);
        update(taken);
        return predicted;
    }

  private:
    static constexpr int kTables = TagePredictor::kTables;
    static constexpr uint32_t kTableSize = 1u << TagePredictor::kTableBits;

    struct Entry
    {
        uint16_t tag = 0;
        int8_t ctr = 0;
        uint8_t useful = 0;
    };

    bool
    predict(uint64_t pc)
    {
        provider_ = -1;
        altpred_table_ = -1;
        base_idx_ = static_cast<uint32_t>(pc >> 2) & (base_.size() - 1);
        for (int t = 0; t < kTables; ++t) {
            const int length = TagePredictor::kHistLengths[t];
            const uint64_t h =
                referenceFold(ghist_, TagePredictor::kTableBits, length);
            idx_[t] = static_cast<uint32_t>(
                ((pc >> 2) ^ (pc >> (TagePredictor::kTableBits + 2)) ^ h)
                & (kTableSize - 1));
            const uint64_t h8 = referenceFold(ghist_, 8, length);
            const uint64_t h7 = referenceFold(ghist_, 7, length) << 1;
            tag_[t] = static_cast<uint16_t>(((pc >> 2) ^ h8 ^ h7) & 0xff);
        }
        const bool base_pred = base_[base_idx_] >= 2;
        altpred_ = base_pred;
        provider_pred_ = base_pred;
        for (int t = kTables - 1; t >= 0; --t) {
            const Entry& e = tables_[t][idx_[t]];
            if (e.tag == tag_[t]) {
                if (provider_ < 0) {
                    provider_ = t;
                    provider_pred_ = e.ctr >= 0;
                } else if (altpred_table_ < 0) {
                    altpred_table_ = t;
                    altpred_ = e.ctr >= 0;
                    break;
                }
            }
        }
        if (provider_ >= 0 && altpred_table_ < 0) {
            altpred_ = base_pred;
        }
        return provider_ >= 0 ? provider_pred_ : base_pred;
    }

    void
    update(bool taken)
    {
        const bool prediction =
            provider_ >= 0 ? provider_pred_ : (base_[base_idx_] >= 2);
        if (provider_ >= 0) {
            Entry& e = tables_[provider_][idx_[provider_]];
            if (taken) {
                e.ctr = static_cast<int8_t>(std::min(e.ctr + 1, 3));
            } else {
                e.ctr = static_cast<int8_t>(std::max(e.ctr - 1, -4));
            }
            if (provider_pred_ != altpred_) {
                if (provider_pred_ == taken) {
                    e.useful = static_cast<uint8_t>(std::min(e.useful + 1, 3));
                } else if (e.useful > 0) {
                    --e.useful;
                }
            }
        } else {
            uint8_t& c = base_[base_idx_];
            c = taken ? static_cast<uint8_t>(std::min(c + 1, 3))
                      : static_cast<uint8_t>(std::max(c - 1, 0));
        }
        if (prediction != taken && provider_ < kTables - 1) {
            rng_state_ ^= rng_state_ << 13;
            rng_state_ ^= rng_state_ >> 7;
            rng_state_ ^= rng_state_ << 17;
            bool allocated = false;
            for (int t = provider_ + 1; t < kTables; ++t) {
                Entry& e = tables_[t][idx_[t]];
                if (e.useful == 0) {
                    e.tag = tag_[t];
                    e.ctr = taken ? 0 : -1;
                    allocated = true;
                    break;
                }
            }
            if (!allocated) {
                for (int t = provider_ + 1; t < kTables; ++t) {
                    Entry& e = tables_[t][idx_[t]];
                    if (e.useful > 0) {
                        --e.useful;
                    }
                }
            }
        }
        for (int w = 3; w > 0; --w) {
            ghist_[w] = (ghist_[w] << 1) | (ghist_[w - 1] >> 63);
        }
        ghist_[0] = (ghist_[0] << 1) | (taken ? 1 : 0);
    }

    std::vector<uint8_t> base_;
    std::vector<Entry> tables_[kTables];
    uint64_t ghist_[4] = {};
    uint64_t rng_state_ = 0x12345678;
    int provider_ = -1;
    int altpred_table_ = -1;
    bool provider_pred_ = false;
    bool altpred_ = false;
    uint32_t base_idx_ = 0;
    uint32_t idx_[kTables] = {};
    uint16_t tag_[kTables] = {};
};

/** Over a million random and adversarial outcomes, every fold register
 *  must equal the from-scratch fold of the current history, and the
 *  predictions must equal the refolding predictor's. */
TEST(Branch, TageIncrementalFoldsMatchReference)
{
    TagePredictor tage;
    ReferenceTage oracle;
    Rng rng(0x7a6eull);
    uint64_t steps = 0;
    auto step = [&](bool taken) {
        const uint64_t pc = 0x400000 + 4 * rng.below(4096);
        ASSERT_EQ(tage.predictAndUpdate(pc, taken),
                  oracle.predictAndUpdate(pc, taken))
            << "prediction " << steps;
        const uint64_t history[4] = {tage.historyWord(0), tage.historyWord(1),
                                     tage.historyWord(2), tage.historyWord(3)};
        for (int t = 0; t < TagePredictor::kTables; ++t) {
            for (int f = 0; f < TagePredictor::kFolds; ++f) {
                ASSERT_EQ(tage.foldRegister(t, f),
                          referenceFold(history, TagePredictor::kFoldWidths[f],
                                        TagePredictor::kHistLengths[t]))
                    << "table " << t << " fold " << f << " step " << steps;
            }
        }
        ++steps;
    };
    auto run = [&](int count, auto outcome) {
        for (int i = 0; i < count && !HasFatalFailure(); ++i) {
            step(outcome(i));
        }
    };
    run(400000, [&](int) { return rng.chance(0.5); });
    run(100000, [](int) { return true; });   // All taken: every fold bit set.
    run(100000, [](int) { return false; });  // And drained again.
    run(100000, [](int i) { return (i & 1) != 0; });
    // Runs whose edges cross history bits 63 and 127 at every phase.
    for (int length : {62, 63, 64, 65, 126, 127, 128, 129, 130, 131}) {
        run(20000, [length](int i) { return (i / length) % 2 == 0; });
    }
    run(100000, [&](int) { return rng.chance(0.9); }); // Biased random.
    EXPECT_GE(steps, 1000000u);
}

// ---- Core model ------------------------------------------------------------

/** Convenience: run a synthetic event stream against a core. */
class CoreHarness
{
  public:
    explicit CoreHarness(const CoreParams& p) : model_(p)
    {
        trace::setSink(&model_);
    }
    ~CoreHarness() { trace::setSink(nullptr); }

    CoreModel& model() { return model_; }

    CoreStats
    finish()
    {
        trace::setSink(nullptr);
        return model_.finish();
    }

  private:
    CoreModel model_;
};

TEST(Core, AluOnlyIsMostlyRetiring)
{
    VT_TEST_SITE(site, "coretest.alu", 64, 16, Block);
    CoreHarness h(baselineConfig());
    for (int i = 0; i < 10000; ++i) {
        trace::block(site);
    }
    const CoreStats s = h.finish();
    EXPECT_EQ(s.instructions, 160000u);
    const TopDown td = s.topdown();
    EXPECT_GT(td.retiring, 0.95)
        << "pure ALU code with a tiny footprint should retire ~all slots";
}

TEST(Core, StreamingLoadsAreMemoryBound)
{
    VT_TEST_SITE(site, "coretest.stream", 64, 2, Block);
    CoreHarness h(baselineConfig());
    uint64_t addr = 0x200000000ull;
    for (int i = 0; i < 200000; ++i) {
        trace::block(site);
        trace::load(addr, 8);
        addr += 4096; // every load a fresh page: guaranteed misses
    }
    const CoreStats s = h.finish();
    const TopDown td = s.topdown();
    EXPECT_GT(td.backend(), 0.5)
        << "a pure pointer-chase must be backend bound";
    EXPECT_GT(td.backend_memory, td.backend_core);
    EXPECT_GT(s.l1dMpki(), 100.0);
    // The smaller window structure saturates first: with a 36-entry RS in
    // front of a 128-entry ROB, load streams stall in the RS.
    EXPECT_GT(s.slots_rob_stall + s.slots_rs_stall, 0u);
}

TEST(Core, RandomBranchesCauseBadSpeculation)
{
    VT_TEST_SITE(br, "coretest.randbr", 16, 2, Branch);
    CoreHarness h(baselineConfig());
    Rng rng(1);
    for (int i = 0; i < 100000; ++i) {
        trace::branch(br, rng.chance(0.5));
    }
    const CoreStats s = h.finish();
    const TopDown td = s.topdown();
    EXPECT_GT(td.bad_speculation, 0.3)
        << "unpredictable branches must burn slots on flushes";
    EXPECT_GT(s.branchMpki(), 50.0);
}

TEST(Core, HugeCodeFootprintIsFrontendBound)
{
    // 512 sites x ~512B padded stride: far beyond a 32K L1i.
    static std::vector<trace::CodeSite*> sites;
    if (sites.empty()) {
        for (int i = 0; i < 512; ++i) {
            sites.push_back(&trace::registry().define(
                "coretest.fe." + std::to_string(i), 64, 2,
                trace::SiteKind::Block));
        }
    }
    CoreHarness h(baselineConfig());
    for (int rep = 0; rep < 200; ++rep) {
        for (auto* s : sites) {
            trace::block(*s);
        }
    }
    const CoreStats s = h.finish();
    const TopDown td = s.topdown();
    EXPECT_GT(td.frontend, 0.2)
        << "thrashing the L1i must show up as frontend bound";
    EXPECT_GT(s.l1iMpki(), 10.0);
}

TEST(Core, SmallStoreBufferStalls)
{
    CoreParams p = baselineConfig();
    p.sb_size = 4;
    VT_TEST_SITE(site, "coretest.sbstall", 32, 1, Block);
    CoreHarness h(p);
    uint64_t addr = 0x300000000ull;
    for (int i = 0; i < 50000; ++i) {
        trace::block(site);
        trace::store(addr, 8);
        addr += 4096; // misses: slow drains back up the tiny SB
    }
    const CoreStats s = h.finish();
    EXPECT_GT(s.slots_sb_stall, 0u);
    EXPECT_GT(s.sbStallsPki(), 1.0);
}

TEST(Core, BiggerRobReducesMemoryStalls)
{
    auto run = [](const CoreParams& p) {
        VT_TEST_SITE(site, "coretest.rob", 48, 6, Block);
        CoreHarness h(p);
        uint64_t addr = 0x400000000ull;
        for (int i = 0; i < 100000; ++i) {
            trace::block(site);
            trace::load(addr, 8);
            addr += 256;
        }
        return h.finish();
    };
    const CoreStats small = run(baselineConfig());
    const CoreStats big = run(beOp2Config());
    EXPECT_LT(big.cycles, small.cycles)
        << "be_op2's larger window must absorb more memory latency";
}

TEST(Core, TopdownSumsToOne)
{
    VT_TEST_SITE(site, "coretest.sum", 48, 4, Block);
    VT_TEST_SITE(br, "coretest.sum.br", 16, 1, Branch);
    CoreHarness h(baselineConfig());
    Rng rng(9);
    uint64_t addr = 0x500000000ull;
    for (int i = 0; i < 30000; ++i) {
        trace::block(site);
        trace::load(addr, 16);
        trace::store(addr + 64, 4);
        trace::branch(br, rng.chance(0.3));
        addr += 192;
    }
    const CoreStats s = h.finish();
    const TopDown td = s.topdown();
    EXPECT_NEAR(td.retiring + td.frontend + td.bad_speculation
                    + td.backend_memory + td.backend_core,
                1.0, 1e-9);
    EXPECT_EQ(s.slots_total, s.cycles * 4);
}

TEST(Core, SecondsScaleWithFrequency)
{
    CoreStats s;
    s.cycles = 3'500'000'000ull;
    s.freq_ghz = 3.5;
    EXPECT_NEAR(s.seconds(), 1.0, 1e-9);
}

// ---- Ring buffer ----------------------------------------------------------

TEST(RingBuffer, PushPopFifoOrder)
{
    RingBuffer<int> ring(4);
    EXPECT_TRUE(ring.empty());
    ring.push_back(1);
    ring.push_back(2);
    ring.push_back(3);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.front(), 1);
    EXPECT_EQ(ring.back(), 3);
    EXPECT_EQ(ring[1], 2);
    ring.pop_front();
    EXPECT_EQ(ring.front(), 2);
    ring.pop_front();
    ring.pop_front();
    EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, WrapsAroundTheStorageBoundary)
{
    RingBuffer<int> ring(4);
    // Advance head past the physical end several times.
    for (int i = 0; i < 100; ++i) {
        ring.push_back(i);
        ring.push_back(i + 1000);
        EXPECT_EQ(ring.front(), i);
        ring.pop_front();
        EXPECT_EQ(ring.front(), i + 1000);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, GrowsPastNominalCapacityPreservingOrder)
{
    // The MSHR list can exceed its nominal size; the ring must grow
    // transparently, like the deque it replaced.
    RingBuffer<int> ring(4);
    for (int i = 0; i < 3; ++i) {
        ring.push_back(i);
        ring.pop_front(); // Skew head so growth happens mid-wrap.
    }
    for (int i = 0; i < 50; ++i) {
        ring.push_back(i);
    }
    ASSERT_EQ(ring.size(), 50u);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(ring[static_cast<size_t>(i)], i);
    }
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(ring.front(), i);
        ring.pop_front();
    }
}

TEST(RingBuffer, MatchesDequeUnderRandomOperations)
{
    RingBuffer<uint64_t> ring(8);
    std::deque<uint64_t> reference;
    Rng rng(42);
    for (int step = 0; step < 20000; ++step) {
        if (reference.empty() || rng.chance(0.55)) {
            const uint64_t v = rng.below(1u << 30);
            ring.push_back(v);
            reference.push_back(v);
        } else {
            ASSERT_EQ(ring.front(), reference.front()) << step;
            ring.pop_front();
            reference.pop_front();
        }
        ASSERT_EQ(ring.size(), reference.size()) << step;
        if (!reference.empty()) {
            ASSERT_EQ(ring.back(), reference.back()) << step;
            const size_t mid = reference.size() / 2;
            ASSERT_EQ(ring[mid], reference[mid]) << step;
        }
    }
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

// ---- Batch capacity (bit-identity) ----------------------------------------

/** A branch-heavy kernel (where the fused kBlockBranch record carries the
 *  direction) must produce bit-identical CoreStats at any capacity. */
TEST(CoreBatch, BranchHeavyStatsAreBitIdentical)
{
    auto run = [](uint32_t batch_capacity) {
        VT_TEST_SITE(site, "coretest.batch.blk", 48, 6, Block);
        VT_TEST_SITE(br, "coretest.batch.br", 16, 2, Branch);
        VT_TEST_SITE(loop, "coretest.batch.loop", 12, 1, Branch);
        CoreModel model(baselineConfig());
        trace::setSink(&model, batch_capacity);
        Rng rng(7);
        uint64_t addr = 0x600000000ull;
        for (int i = 0; i < 60000; ++i) {
            trace::block(site);
            trace::load(addr, 16);
            trace::branch(br, rng.chance(0.4));  // Hard to predict.
            trace::branch(loop, i % 13 != 0);    // Learnable.
            trace::store(addr + 64, 8);
            addr += 192;
        }
        trace::setSink(nullptr);
        return model.finish();
    };

    const CoreStats one = run(1); // A batch of one per emit.
    EXPECT_GT(one.branches, 100000u);
    EXPECT_GT(one.branch_mispredicts, 0u);
    // Capacity 3: constant wraparound; 256: the production default.
    for (uint32_t capacity : {3u, 64u, 256u}) {
        const CoreStats batched = run(capacity);
        for (const Counter<CoreStats>& c : kCoreStatsCounters) {
            EXPECT_EQ(batched.*c.member, one.*c.member) << c.name;
        }
    }
}

// ---- Event-driven fast-forward vs the stepping oracle (bit-identity) -----

/** How a pipelined model runs its two stages. */
enum class StageMode
{
    Helpers, ///< One helper thread per stage.
    Inline,  ///< Both stages on the probe-emitting thread.
};

const char*
modeName(StageMode mode)
{
    return mode == StageMode::Helpers ? "helpers" : "inline";
}

/** The modes this machine can exercise: inline always, helpers when
 *  the core budget has the two free cores a model needs. */
std::vector<StageMode>
stageModes()
{
    std::vector<StageMode> out{StageMode::Inline};
    if (freeCores() >= 2) {
        out.push_back(StageMode::Helpers);
    }
    return out;
}

/** Holds every free core while a model forced inline runs (models
 *  construct and decide inside its scope); holds none for helpers. */
CoreHold
holdFor(StageMode mode)
{
    return CoreHold(mode == StageMode::Inline ? std::max(freeCores(), 0) : 0);
}

/** Everything a CoreModel class and the stepping oracle must agree on. */
struct DiffRun
{
    CoreStats stats;
    std::vector<SiteUarch> sites;
    SiteUarch unattributed;
    std::vector<PhaseSample> phases;
    bool helpers = false; ///< The stages ran on helper threads.
};

/** Class `cls`'s results from a finished model. */
DiffRun
classRun(const CoreModel& model, size_t cls)
{
    DiffRun r;
    r.stats = model.stats(cls);
    r.sites = model.attributionPerSite(cls);
    r.unattributed = model.attributionUnattributed(cls);
    r.phases = model.phaseSamples(cls);
    r.helpers = model.ranOnHelpers();
    return r;
}

/** Finishes a one-class model and copies its results. */
DiffRun
collect(CoreModel& model)
{
    model.finish();
    return classRun(model, 0);
}

/** Runs `emit` through a one-class CoreModel on `layout`, or through the
 *  stepping oracle when `oracle` is set. */
template <typename Emit>
DiffRun
runStream(const CoreParams& params, bool oracle, uint32_t batch,
          std::shared_ptr<const trace::CodeLayout> layout, Emit emit)
{
    if (oracle) {
        SteppingCore core(params, std::move(layout));
        trace::setSink(&core, batch);
        emit();
        trace::setSink(nullptr);
        core.finish();
        DiffRun r;
        r.stats = core.stats();
        r.sites = core.attributionPerSite();
        r.unattributed = core.attributionUnattributed();
        r.phases = core.phaseSamples();
        return r;
    }
    CoreModel model(params, std::move(layout));
    trace::setSink(&model, batch);
    emit();
    trace::setSink(nullptr);
    return collect(model);
}

/** Emits a deterministic pseudo-random probe stream into the attached
 *  sink — blocks of several sizes (some load-dependent, one larger than
 *  the L1i), hard and learnable branches, loads over a wandering working
 *  set, stores. With `huge_block`, every 97th iteration also runs a
 *  49 KB block, whose L1i misses then land inside phase windows. */
void
emitProbeStream(bool huge_block = false)
{
    VT_TEST_SITE(blk_a, "coretest.diff.blk_a", 96, 11, Block);
    VT_TEST_SITE(blk_b, "coretest.diff.blk_b", 40, 5, Block);
    VT_TEST_SITE(blk_c, "coretest.diff.blk_c", 200, 23, BlockLoadDep);
    VT_TEST_SITE(br_a, "coretest.diff.br_a", 16, 2, Branch);
    VT_TEST_SITE(br_b, "coretest.diff.br_b", 12, 1, BranchLoadDep);
    VT_TEST_SITE(blk_big, "coretest.diff.blk_big", 8192, 37, Block);
    VT_TEST_SITE(blk_huge, "coretest.diff.blk_huge", 49152, 300, Block);
    Rng rng(0xd1ffe4e57ull);
    uint64_t addr = 0x700000000ull;
    for (int i = 0; i < 12000; ++i) {
        if (huge_block && i % 97 == 0) {
            trace::block(blk_huge);
        }
        switch (rng.below(7)) {
          case 0:
            trace::block(blk_a);
            break;
          case 1:
            trace::block(blk_b);
            break;
          case 2: // Feed the load-dependent block.
            trace::load(addr, static_cast<uint32_t>(8 + rng.below(64)));
            trace::block(blk_c);
            break;
          case 3:
            trace::branch(br_a, rng.chance(0.37)); // Hard to predict.
            break;
          case 4: // Load-dependent branch.
            trace::load(addr + rng.below(1u << 22), 4);
            trace::branch(br_b, rng.chance(0.61));
            break;
          case 5: // Larger than the L1i: misses on every execution.
            trace::block(blk_big);
            break;
          default:
            trace::store(addr + rng.below(1u << 18), 16);
            break;
        }
        addr += 64 * rng.below(1024); // Wandering working set: mixed hits
                                      // and misses at every cache level.
    }
}

/** Runs emitProbeStream() through one CoreModel of one class, or
 *  through the stepping oracle. */
DiffRun
runProbeStream(const CoreParams& params, bool oracle, uint32_t batch,
               StageMode mode = StageMode::Inline)
{
    const CoreHold hold = holdFor(mode);
    return runStream(params, oracle, batch, nullptr,
                     [] { emitProbeStream(); });
}

void
expectSameSite(const SiteUarch& a, const SiteUarch& b,
               const std::string& what)
{
    for (const Counter<SiteUarch>& c : kSiteUarchCounters) {
        EXPECT_EQ(a.*c.member, b.*c.member) << what << " " << c.name;
    }
}

void
expectSameRun(const DiffRun& opt, const DiffRun& ref,
              const std::string& what)
{
    for (const Counter<CoreStats>& c : kCoreStatsCounters) {
        EXPECT_EQ(opt.stats.*c.member, ref.stats.*c.member)
            << what << " " << c.name;
    }

    ASSERT_EQ(opt.sites.size(), ref.sites.size()) << what;
    for (size_t s = 0; s < opt.sites.size(); ++s) {
        expectSameSite(opt.sites[s], ref.sites[s],
                       what + " site " + std::to_string(s));
    }
    expectSameSite(opt.unattributed, ref.unattributed,
                   what + " unattributed");

    ASSERT_EQ(opt.phases.size(), ref.phases.size()) << what;
    for (size_t s = 0; s < opt.phases.size(); ++s) {
        const PhaseSample& p = opt.phases[s];
        const PhaseSample& q = ref.phases[s];
        const std::string ctx = what + " phase " + std::to_string(s);
        EXPECT_EQ(p.instructions, q.instructions) << ctx;
        EXPECT_EQ(p.cycles, q.cycles) << ctx;
        EXPECT_EQ(p.slots_retiring, q.slots_retiring) << ctx;
        EXPECT_EQ(p.slots_frontend, q.slots_frontend) << ctx;
        EXPECT_EQ(p.slots_bad_spec, q.slots_bad_spec) << ctx;
        EXPECT_EQ(p.slots_backend_memory, q.slots_backend_memory) << ctx;
        EXPECT_EQ(p.slots_backend_core, q.slots_backend_core) << ctx;
        EXPECT_EQ(p.branches, q.branches) << ctx;
        EXPECT_EQ(p.branch_mispredicts, q.branch_mispredicts) << ctx;
        EXPECT_EQ(p.l1d_misses, q.l1d_misses) << ctx;
        EXPECT_EQ(p.l2_misses, q.l2_misses) << ctx;
        EXPECT_EQ(p.l3_misses, q.l3_misses) << ctx;
        EXPECT_EQ(p.l1i_misses, q.l1i_misses) << ctx;
    }
}

/** The differential suite: the fast-forward model must be
 *  bit-identical to the stepping oracle across dispatch
 *  widths, every Table IV row, a batch of one and the default, and all
 *  four instrumentation states (attribution x phase sampling — each
 *  selects a different dispatch code path). */
TEST(CoreDifferential, FastForwardMatchesReferenceStepping)
{
    std::vector<CoreParams> bases;
    for (int w : {1, 2, 4, 6}) {
        CoreParams p = baselineConfig();
        p.name = "baseline.w" + std::to_string(w);
        p.width = w;
        bases.push_back(p);
    }
    for (const char* name : {"fe_op", "be_op1", "be_op2", "bs_op"}) {
        bases.push_back(configByName(name));
    }

    int combo = 0;
    for (const CoreParams& base : bases) {
        for (uint32_t batch : {1u, 256u}) {
            // Cycle the instrumentation combos so each of the four
            // dispatch paths meets several widths and configs.
            CoreParams p = base;
            p.attribute_sites = (combo & 1) != 0;
            p.phase_window = (combo & 2) != 0 ? 4096 : 0;
            ++combo;
            const std::string what =
                p.name + " batch=" + std::to_string(batch)
                + " attr=" + std::to_string(p.attribute_sites)
                + " phase=" + std::to_string(p.phase_window);
            const DiffRun ref = runProbeStream(p, true, batch);
            for (StageMode mode : stageModes()) {
                const DiffRun opt = runProbeStream(p, false, batch, mode);
                const std::string run = what + " " + modeName(mode);
                EXPECT_EQ(opt.helpers, mode == StageMode::Helpers) << run;
                EXPECT_GT(opt.stats.instructions, 50000u) << run;
                expectSameRun(opt, ref, run);
            }
        }
    }
}

/** Fully instrumented pairing on every width (the loop above cycles
 *  combos, so pin the heaviest one — attribution + phases — here). */
TEST(CoreDifferential, InstrumentedFastForwardMatchesOnAllWidths)
{
    for (int w : {1, 2, 4, 6}) {
        CoreParams p = baselineConfig();
        p.width = w;
        p.attribute_sites = true;
        p.phase_window = 1000; // Off-width-multiple boundaries.
        const DiffRun ref = runProbeStream(p, true, 256);
        for (StageMode mode : stageModes()) {
            const std::string what = "instrumented w" + std::to_string(w)
                                     + " " + modeName(mode);
            const DiffRun opt = runProbeStream(p, false, 256, mode);
            EXPECT_EQ(opt.helpers, mode == StageMode::Helpers) << what;
            ASSERT_GT(opt.phases.size(), 50u) << what;
            expectSameRun(opt, ref, what);
        }
    }
}

/** The default placement of every site registered now, as a layout
 *  value (a site defined later is not covered). */
std::shared_ptr<trace::CodeLayout>
defaultLayoutNow()
{
    auto layout = std::make_shared<trace::CodeLayout>();
    for (const trace::CodeSite* site : trace::registry().sites()) {
        layout->sites.push_back({site->address, false});
    }
    return layout;
}

/** A stream whose second half branches on a site first defined mid-run,
 *  simulated on `layout`. `fresh` is defined at the midpoint when null
 *  (and returned), else reused from a previous run. */
DiffRun
runFreshSiteStream(bool oracle, StageMode mode,
                   std::shared_ptr<const trace::CodeLayout> layout,
                   trace::CodeSite** fresh)
{
    VT_TEST_SITE(blk, "coretest.fresh.blk", 64, 9, Block);
    VT_TEST_SITE(br, "coretest.fresh.br", 16, 2, Branch);
    const CoreHold hold = holdFor(mode);
    CoreParams params = baselineConfig();
    params.attribute_sites = true;
    params.phase_window = 2000;
    return runStream(params, oracle, 256, std::move(layout), [&] {
        Rng rng(0xf7e54ull);
        uint64_t addr = 0x900000000ull;
        constexpr int kIters = 20000;
        for (int i = 0; i < kIters; ++i) {
            if (i == kIters / 2 && *fresh == nullptr) {
                // Registry growth while the stages are mid-stream.
                *fresh = &trace::registry().define(
                    "coretest.fresh.mid" + std::string(modeName(mode)), 48,
                    5, trace::SiteKind::BranchLoadDep);
            }
            trace::block(blk);
            trace::load(addr, 16);
            if (i >= kIters / 2) {
                trace::branch(**fresh, rng.chance(0.3));
            } else {
                trace::branch(br, rng.chance(0.5));
            }
            trace::store(addr + 8, 8);
            addr += 64 * rng.below(256);
        }
    });
}

TEST(CoreDifferential, SiteDefinedAndMovedMidRunMatchesReference)
{
    for (StageMode mode : stageModes()) {
        // Defined mid-run: the layout predates the site, which keeps its
        // default placement.
        trace::CodeSite* fresh = nullptr;
        const auto before = defaultLayoutNow();
        const DiffRun opt = runFreshSiteStream(false, mode, before, &fresh);
        const DiffRun ref = runFreshSiteStream(true, mode, before, &fresh);
        const std::string what = std::string("fresh site ")
                                 + modeName(mode);
        EXPECT_EQ(opt.helpers, mode == StageMode::Helpers) << what;
        ASSERT_GT(opt.sites.size(), fresh->id) << what;
        EXPECT_GT(opt.sites[fresh->id].branches, 5000u) << what;
        expectSameRun(opt, ref, what);

        // Moved: the same stream on a second layout, which places the
        // site seven pages away and inverts its branch.
        auto moved = defaultLayoutNow();
        moved->sites[fresh->id] = {fresh->address + 4096 * 7, true};
        const DiffRun opt_moved =
            runFreshSiteStream(false, mode, moved, &fresh);
        const DiffRun ref_moved =
            runFreshSiteStream(true, mode, moved, &fresh);
        expectSameRun(opt_moved, ref_moved, "moved " + what);
        const SiteUarch& a = opt.sites[fresh->id];
        const SiteUarch& b = opt_moved.sites[fresh->id];
        EXPECT_EQ(a.branches, b.branches) << what;
        EXPECT_EQ(a.taken + b.taken, a.branches)
            << what << ": the moved layout inverts every direction";
    }
}

TEST(CoreLayout, InvertingLayoutFlipsTaken)
{
    // A layout that inverts a branch feeds the model exactly the stream
    // a program taking the opposite directions would: per-site tallies,
    // predictor and BTB outcomes and every CoreStats field.
    VT_TEST_SITE(blk, "coretest.layout.blk", 64, 9, Block);
    VT_TEST_SITE(br, "coretest.layout.br", 16, 2, Branch);
    auto run = [&](std::shared_ptr<const trace::CodeLayout> layout,
                   bool flip_input) {
        CoreParams params = baselineConfig();
        params.attribute_sites = true;
        CoreModel model(params, std::move(layout));
        trace::setSink(&model, 256);
        Rng rng(0x1a70u);
        for (int i = 0; i < 5000; ++i) {
            trace::block(blk);
            trace::branch(br, rng.chance(0.9) != flip_input);
        }
        trace::setSink(nullptr);
        return collect(model);
    };
    auto inverted = defaultLayoutNow();
    inverted->sites[br.id].invert = true;

    const DiffRun plain = run(nullptr, false);
    const DiffRun flipped = run(inverted, false);
    const DiffRun flipped_input = run(nullptr, true);
    EXPECT_EQ(plain.sites[br.id].branches, 5000u);
    EXPECT_GT(plain.sites[br.id].taken, 4000u);
    EXPECT_EQ(flipped.sites[br.id].taken,
              5000u - plain.sites[br.id].taken);
    expectSameRun(flipped, flipped_input, "inverted layout");
}

// ---- Pipeline lifetime and the core budget ---------------------------------

TEST(CorePipeline, DestroyedMidStreamWithoutFinishJoins)
{
    VT_TEST_SITE(blk, "coretest.abandon.blk", 32, 4, Block);
    const int free_before = freeCores();
    for (StageMode mode : stageModes()) {
        for (int events : {0, 100, 2048, 2049, 50000}) {
            const CoreHold hold = holdFor(mode);
            {
                CoreModel model(baselineConfig());
                trace::setSink(&model, 256);
                for (int i = 0; i < events; ++i) {
                    trace::block(blk);
                    trace::load(0x500000000ull + 64u * (i % 4096), 8);
                }
                trace::setSink(nullptr);
                // Helpers start with the first full slot only.
                EXPECT_EQ(model.ranOnHelpers(),
                          mode == StageMode::Helpers && 2 * events >= 2048)
                    << modeName(mode) << " " << events;
            } // Destroyed without finish(): must join, not hang.
        }
    }
    EXPECT_EQ(freeCores(), free_before);
}

TEST(CorePipeline, HelpersHoldTwoCoresUntilFinish)
{
    if (freeCores() < 2) {
        GTEST_SKIP() << "the core budget has fewer than two free cores";
    }
    VT_TEST_SITE(blk, "coretest.budget.blk", 32, 4, Block);
    const int free_before = freeCores();
    CoreModel model(baselineConfig());
    EXPECT_EQ(freeCores(), free_before) << "no cores before the first slot";
    trace::setSink(&model, 256);
    for (int i = 0; i < 5000; ++i) {
        trace::block(blk);
    }
    trace::setSink(nullptr);
    EXPECT_TRUE(model.ranOnHelpers());
    EXPECT_EQ(freeCores(), free_before - 2);
    model.finish();
    EXPECT_EQ(freeCores(), free_before);
}

TEST(CorePipeline, WorkerPoolHoldsCoresOnlyWhileRunning)
{
    const int start = freeCores();
    std::vector<int> seen(8, 0);
    auto batch = [&](size_t tasks) {
        std::vector<std::function<void()>> out;
        for (size_t i = 0; i < tasks; ++i) {
            out.push_back([&seen, i] { seen[i] = freeCores(); });
        }
        return out;
    };

    farm::WorkerPool threaded(3);
    threaded.run({}); // An empty batch holds nothing.
    EXPECT_EQ(freeCores(), start);
    threaded.run(batch(2)); // min(workers, tasks) = 2.
    EXPECT_EQ(seen[0], start - 2);
    EXPECT_EQ(seen[1], start - 2);
    EXPECT_EQ(freeCores(), start);
    threaded.run(batch(5)); // min(workers, tasks) = 3.
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(seen[i], start - 3) << i;
    }
    EXPECT_EQ(freeCores(), start);

    farm::WorkerPool inline_pool(1); // Runs on the caller: holds none.
    inline_pool.run(batch(4));
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(seen[i], start) << i;
    }
    inline_pool.run({});
    EXPECT_EQ(freeCores(), start);
}

/** One instrumented transcode's comparable outputs. */
struct InstrumentedRun
{
    uint64_t fingerprint = 0;
    std::string attribution; ///< The merged HotspotReport as JSON.
    std::string phases;      ///< The phase counter tracks as a trace.
};

InstrumentedRun
runInstrumentedUnder(StageMode mode)
{
    const CoreHold hold = holdFor(mode);
    obs::SpanTracer tracer;
    obs::setGlobalTracer(&tracer);
    obs::hotspotReport().reset();
    core::RunConfig cfg;
    cfg.video = "cat";
    cfg.seconds = 0.04;
    cfg.params = codec::presetParams("fast");
    cfg.core = baselineConfig();
    const core::RunResult result = core::runInstrumented(cfg);
    InstrumentedRun run;
    run.fingerprint = farm::fingerprint(result);
    run.attribution = obs::hotspotReport().toJson();
    run.phases = tracer.toChromeTrace();
    obs::setGlobalTracer(nullptr);
    return run;
}

TEST(CorePipeline, RunInstrumentedIdenticalWithHelpersAndInline)
{
    if (freeCores() < 2) {
        GTEST_SKIP() << "the core budget has fewer than two free cores";
    }
    obs::setUarchAttributionEnabled(true);
    obs::setPhaseWindow(20000);
    const InstrumentedRun helpers = runInstrumentedUnder(StageMode::Helpers);
    const InstrumentedRun inline_run = runInstrumentedUnder(StageMode::Inline);
    obs::setUarchAttributionEnabled(false);
    obs::setPhaseWindow(0);
    obs::hotspotReport().reset();
    EXPECT_EQ(helpers.fingerprint, inline_run.fingerprint);
    EXPECT_EQ(helpers.attribution, inline_run.attribution);
    EXPECT_EQ(helpers.phases, inline_run.phases);
    EXPECT_NE(helpers.phases.find("topdown"), std::string::npos);
}

// ---- One pass, many classes -------------------------------------------------

/** Runs emitProbeStream(huge_block) through one model of `classes`. */
std::vector<DiffRun>
runProbeStreamMulti(const std::vector<CoreParams>& classes, StageMode mode)
{
    const CoreHold hold = holdFor(mode);
    CoreModel model(classes);
    trace::setSink(&model, 256);
    emitProbeStream(true);
    trace::setSink(nullptr);
    model.finish();
    std::vector<DiffRun> runs;
    for (size_t c = 0; c < classes.size(); ++c) {
        runs.push_back(classRun(model, c));
    }
    return runs;
}

/** Runs one real transcode through one model of `classes`. */
std::vector<DiffRun>
transcodeMulti(const std::vector<CoreParams>& classes, StageMode mode)
{
    const CoreHold hold = holdFor(mode);
    const auto& source = core::mezzanine("cat", 0.08);
    trace::arena().reset();
    CoreModel model(classes);
    trace::setSink(&model);
    codec::transcode(source, codec::presetParams("fast"));
    trace::setSink(nullptr);
    model.finish();
    std::vector<DiffRun> runs;
    for (size_t c = 0; c < classes.size(); ++c) {
        runs.push_back(classRun(model, c));
    }
    return runs;
}

/** The classes of a shared pass: all five Table IV rows plus two that
 *  split the sharing groups further — a baseline with other latencies
 *  (same structures, another annotation) and one without attribution
 *  (same annotation as the baseline, which attributes). */
std::vector<CoreParams>
sharedPassClasses()
{
    std::vector<CoreParams> classes = tableIVConfigs();
    for (CoreParams& p : classes) {
        p.attribute_sites = true;
        p.phase_window = 1000;
    }
    CoreParams slow_memory = classes.front();
    slow_memory.name = "baseline.slow_memory";
    slow_memory.latencies.l3 += 7;
    slow_memory.latencies.memory += 100;
    classes.push_back(slow_memory);
    CoreParams quiet = classes.front();
    quiet.name = "baseline.quiet";
    quiet.attribute_sites = false;
    classes.push_back(quiet);
    return classes;
}

/** Every class of one shared pass must match a model of that class
 *  alone, field by field — CoreStats, per-site attribution and phase
 *  samples — on a synthetic stream whose 49 KB block puts L1i misses
 *  inside phase windows, and on a real transcode; inline and with
 *  helper threads. */
TEST(CoreMulti, SharedPassMatchesSeparateModels)
{
    const std::vector<CoreParams> classes = sharedPassClasses();
    for (StageMode mode : stageModes()) {
        const std::vector<DiffRun> stream = runProbeStreamMulti(classes, mode);
        const std::vector<DiffRun> transcode = transcodeMulti(classes, mode);
        ASSERT_EQ(stream.size(), classes.size());
        for (size_t c = 0; c < classes.size(); ++c) {
            const std::string what = classes[c].name + " " + modeName(mode);
            const DiffRun alone = runProbeStreamMulti({classes[c]}, mode)[0];
            EXPECT_EQ(stream[c].helpers, mode == StageMode::Helpers) << what;
            EXPECT_GT(stream[c].stats.l1i_misses, 100000u) << what;
            EXPECT_GT(stream[c].phases.size(), 100u) << what;
            expectSameRun(stream[c], alone, "stream " + what);
            expectSameRun(transcode[c], transcodeMulti({classes[c]}, mode)[0],
                          "transcode " + what);
        }
        // The classes really differ: a shared pass must not collapse them.
        EXPECT_NE(stream[0].stats.cycles, stream[3].stats.cycles);
        EXPECT_NE(transcode[0].stats.l1i_misses,
                  transcode[1].stats.l1i_misses);
        EXPECT_NE(stream[0].stats.branch_mispredicts,
                  stream[4].stats.branch_mispredicts);
        EXPECT_NE(stream[0].stats.cycles, stream[5].stats.cycles);
        EXPECT_TRUE(stream[6].sites.empty());
    }
}

/** The class-list runInstrumented is the one-class run, class by class:
 *  fingerprints (which cover every CoreStats field) agree. */
TEST(CoreMulti, RunInstrumentedClassListMatchesLoneRuns)
{
    core::RunConfig cfg;
    cfg.video = "cat";
    cfg.seconds = 0.04;
    cfg.params = codec::presetParams("fast");
    const std::vector<CoreParams> classes = tableIVConfigs();
    const std::vector<core::RunResult> shared =
        core::runInstrumented(cfg, classes);
    ASSERT_EQ(shared.size(), classes.size());
    for (size_t c = 0; c < classes.size(); ++c) {
        cfg.core = classes[c];
        EXPECT_EQ(farm::fingerprint(shared[c]),
                  farm::fingerprint(core::runInstrumented(cfg)))
            << classes[c].name;
    }
}

// ---- Parameter validation ----------------------------------------------------

/** be_op1 with one field broken. */
template <typename Mutate>
CoreParams
brokenBeOp1(Mutate mutate)
{
    CoreParams p = beOp1Config();
    mutate(p);
    return p;
}

TEST(CoreParamsValidationDeathTest, ErrorsNameTheClassAndField)
{
    using P = CoreParams;
    const std::vector<std::pair<std::function<void(P&)>, std::string>> cases{
        {[](P& p) { p.mshr_entries = 0; }, "mshr_entries"},
        {[](P& p) { p.mshr_entries = -3; }, "mshr_entries"},
        {[](P& p) { p.width = 0; }, "width"},
        {[](P& p) { p.rob_size = 0; }, "rob_size"},
        {[](P& p) { p.rs_size = -1; }, "rs_size"},
        {[](P& p) { p.sb_size = 0; }, "sb_size"},
        {[](P& p) { p.mispredict_penalty = -1; }, "mispredict_penalty"},
        {[](P& p) { p.btb_miss_penalty = -2; }, "btb_miss_penalty"},
        {[](P& p) { p.taken_bubble = -1; }, "taken_bubble"},
        {[](P& p) { p.freq_ghz = 0.0; }, "freq_ghz"},
        {[](P& p) { p.freq_ghz = -3.5; }, "freq_ghz"},
        {[](P& p) { p.latencies.memory = -1; }, "latencies.memory"},
        {[](P& p) { p.latencies.l2 = 1 << 15; }, "latencies.l2"},
        {[](P& p) { p.itlb_entries = 0; }, "itlb_entries"},
        {[](P& p) { p.itlb_entries = 6; }, "itlb_entries"},
        {[](P& p) { p.itlb_entries = 12; }, "itlb_entries"},
        {[](P& p) { p.l1d.size_bytes = 3000; }, "l1d.size_bytes"},
        {[](P& p) { p.l2.line_bytes = 48; }, "l2.line_bytes"},
        {[](P& p) { p.l3.assoc = 0; }, "l3.assoc"},
        {[](P& p) { p.l4_size = 100000; }, "l4_size"},
        {[](P& p) { p.predictor = "oracle"; }, "predictor"},
    };
    for (const auto& [mutate, field] : cases) {
        const CoreParams bad = brokenBeOp1(mutate);
        EXPECT_DEATH(validateCoreParams(bad), "'be_op1': " + field) << field;
        // A bad class anywhere in a list stops the model before any
        // state is built.
        EXPECT_DEATH(CoreModel({baselineConfig(), bad}), "'be_op1': " + field)
            << field;
    }
    for (const CoreParams& p : tableIVConfigs()) {
        validateCoreParams(p); // Every shipped row is valid.
    }
}

// ---- Resource-stall PKI rounding (regression) ------------------------------

/** Stall-slot counts that are not a multiple of the width must not be
 *  truncated to whole stall cycles: 6 slots at width 4 is 1.5 cycles,
 *  not 1 (the old integer slots/width division dropped the remainder
 *  before scaling to per-kilo). */
TEST(CoreStatsMetrics, ResourceStallPkiKeepsPartialCycles)
{
    CoreStats s;
    s.width = 4;
    s.instructions = 1000;
    s.slots_rob_stall = 6;  // 1.5 stall cycles.
    s.slots_rs_stall = 3;   // 0.75 — all remainder under integer division.
    s.slots_sb_stall = 5;   // 1.25.
    EXPECT_DOUBLE_EQ(s.robStallsPki(), 1.5);
    EXPECT_DOUBLE_EQ(s.rsStallsPki(), 0.75);
    EXPECT_DOUBLE_EQ(s.sbStallsPki(), 1.25);
    EXPECT_DOUBLE_EQ(s.anyResourceStallsPki(), 3.5);
}

// ---- Table IV configs ----------------------------------------------------

TEST(Config, TableIVRows)
{
    const auto configs = tableIVConfigs();
    ASSERT_EQ(configs.size(), 5u);
    EXPECT_EQ(configs[0].name, "baseline");

    // Sizes are scaled (DESIGN.md §5) but every Table IV relationship
    // must hold exactly.
    const CoreParams base = baselineConfig();
    const CoreParams fe = configByName("fe_op");
    EXPECT_EQ(fe.l1i.size_bytes, base.l1i.size_bytes * 2);
    EXPECT_EQ(fe.itlb_entries, base.itlb_entries * 2);
    EXPECT_EQ(fe.l1d.size_bytes, base.l1d.size_bytes);

    const CoreParams be1 = configByName("be_op1");
    EXPECT_EQ(be1.l1d.size_bytes, base.l1d.size_bytes * 2);
    EXPECT_EQ(be1.l2.size_bytes, base.l2.size_bytes * 2);
    EXPECT_EQ(be1.l3.size_bytes, base.l3.size_bytes / 2);
    EXPECT_EQ(be1.l4_size, base.l3.size_bytes * 2);

    const CoreParams be2 = configByName("be_op2");
    EXPECT_EQ(be2.rob_size, 256);
    EXPECT_EQ(be2.rs_size, 72);
    EXPECT_TRUE(be2.issue_at_dispatch);

    const CoreParams bs = configByName("bs_op");
    EXPECT_EQ(bs.predictor, "tage");

    EXPECT_DEATH(configByName("nope"), "unknown microarchitecture");
}

} // namespace
} // namespace vtrans
