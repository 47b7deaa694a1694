/**
 * @file
 * Tests of profile collection and profile-guided relayout: counting,
 * edge affinity, Pettis-Hansen chain packing, branch polarity flips, and
 * the measurable frontend improvement in the simulator. Relayout returns
 * a layout value and leaves the registry alone.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "layout/profile.h"
#include "layout/relayout.h"
#include "trace/probe.h"
#include "uarch/config.h"
#include "uarch/core.h"
#include "test_site.h"

namespace vtrans {
namespace {

using layout::ProfileCollector;

TEST(Profile, CountsBlocksAndBranches)
{
    VT_TEST_SITE(a, "layouttest.count.a", 32, 4, Block);
    VT_TEST_SITE(br, "layouttest.count.br", 16, 1, Branch);
    ProfileCollector profile;
    trace::setSink(&profile);
    for (int i = 0; i < 10; ++i) {
        trace::block(a);
        trace::branch(br, i % 3 == 0);
    }
    trace::setSink(nullptr);

    ASSERT_GT(profile.sites().size(), a.id);
    EXPECT_EQ(profile.sites()[a.id].executions, 10u);
    EXPECT_EQ(profile.sites()[br.id].taken, 4u);
    EXPECT_EQ(profile.sites()[br.id].not_taken, 6u);
}

TEST(Profile, SuccessorEdges)
{
    VT_TEST_SITE(a, "layouttest.edge.a", 32, 4, Block);
    VT_TEST_SITE(b, "layouttest.edge.b", 32, 4, Block);
    VT_TEST_SITE(c, "layouttest.edge.c", 32, 4, Block);
    ProfileCollector profile;
    trace::setSink(&profile);
    for (int i = 0; i < 5; ++i) {
        trace::block(a);
        trace::block(b);
    }
    trace::block(c);
    trace::setSink(nullptr);

    EXPECT_EQ(profile.edgeCount(a.id, b.id), 5u);
    EXPECT_EQ(profile.edgeCount(b.id, a.id), 4u);
    EXPECT_EQ(profile.edgeCount(b.id, c.id), 1u);
    EXPECT_EQ(profile.edgeCount(a.id, c.id), 0u);
}

/** Every registered site's default address, in id order. */
std::vector<uint64_t>
registryAddresses()
{
    std::vector<uint64_t> out;
    for (const trace::CodeSite* site : trace::registry().sites()) {
        out.push_back(site->address);
    }
    return out;
}

TEST(Relayout, PacksHotChainContiguously)
{
    VT_TEST_SITE(a, "layouttest.pack.a", 64, 4, Block);
    VT_TEST_SITE(b, "layouttest.pack.b", 64, 4, Block);
    ProfileCollector profile;
    trace::setSink(&profile);
    for (int i = 0; i < 1000; ++i) {
        trace::block(a);
        trace::block(b);
    }
    trace::setSink(nullptr);

    const auto before = registryAddresses();
    const auto result = layout::applyProfileGuidedLayout(profile);
    const trace::CodeLayout& packed = *result.layout;
    ASSERT_EQ(packed.sites.size(), trace::registry().sites().size())
        << "the layout covers every site registered when it was built";
    // a -> b is the hottest chain in this profile: b must directly follow
    // a in the new layout (modulo alignment).
    EXPECT_GE(packed.at(b).address, packed.at(a).address + a.bytes);
    EXPECT_LE(packed.at(b).address, packed.at(a).address + a.bytes + 16);
    EXPECT_GT(result.chains, 0);
    EXPECT_LT(result.span_after, result.span_before)
        << "relayout must shrink the overall footprint (padding removed)";

    EXPECT_EQ(registryAddresses(), before)
        << "relayout must leave the registry's default layout alone";
    EXPECT_NE(b.address, a.address + a.bytes) << "the padded default";
}

TEST(Relayout, InvertsMajorityTakenBranches)
{
    VT_TEST_SITE(hot_taken, "layouttest.inv.taken", 16, 1, Branch);
    VT_TEST_SITE(hot_nt, "layouttest.inv.nt", 16, 1, Branch);
    ProfileCollector profile;
    trace::setSink(&profile);
    for (int i = 0; i < 100; ++i) {
        trace::branch(hot_taken, i % 10 != 0); // 90% taken
        trace::branch(hot_nt, i % 10 == 0);    // 10% taken
    }
    trace::setSink(nullptr);

    const auto result = layout::applyProfileGuidedLayout(profile);
    EXPECT_TRUE(result.layout->at(hot_taken).invert);
    EXPECT_FALSE(result.layout->at(hot_nt).invert);
    EXPECT_GE(result.inverted_branches, 1);

    // The inversion lives in the layout only: the bus still delivers the
    // direction the program took.
    ProfileCollector after;
    trace::setSink(&after);
    trace::branch(hot_taken, true);
    trace::setSink(nullptr);
    EXPECT_EQ(after.sites()[hot_taken.id].taken, 1u);
}

TEST(Relayout, ColdBlocksMovedOutOfHotRegion)
{
    VT_TEST_SITE(hot, "layouttest.cold.hot", 64, 4, Block);
    VT_TEST_SITE(cold, "layouttest.cold.cold", 64, 4, Block);
    ProfileCollector profile;
    trace::setSink(&profile);
    for (int i = 0; i < 100000; ++i) {
        trace::block(hot);
    }
    trace::block(cold);
    trace::setSink(nullptr);

    const auto result = layout::applyProfileGuidedLayout(profile);
    EXPECT_LT(result.layout->at(hot).address, result.layout->at(cold).address)
        << "cold block must be placed after the hot region";
}

TEST(Relayout, ImprovesSimulatedFrontend)
{
    // A wide ring of hot blocks whose padded default layout thrashes the
    // L1i; after packing, the same trace must produce fewer L1i misses
    // and fewer cycles.
    static std::vector<trace::CodeSite*> ring;
    if (ring.empty()) {
        // 120 blocks x 48 scaled bytes: ~6 KiB packed (fits the 8 KiB
        // L1i), but the padded default layout strews them across ~2
        // lines each (~13 KiB touched), which thrashes.
        for (int i = 0; i < 120; ++i) {
            ring.push_back(&trace::registry().define(
                "layouttest.ring." + std::to_string(i), 8, 3,
                trace::SiteKind::Block));
        }
    }

    auto runRing = [&](int reps,
                       std::shared_ptr<const trace::CodeLayout> layout) {
        uarch::CoreModel model(uarch::baselineConfig(), std::move(layout));
        trace::setSink(&model);
        for (int r = 0; r < reps; ++r) {
            for (auto* s : ring) {
                trace::block(*s);
            }
        }
        trace::setSink(nullptr);
        return model.finish();
    };

    const auto before = runRing(500, nullptr);

    layout::ProfileCollector profile;
    trace::setSink(&profile);
    for (int r = 0; r < 10; ++r) {
        for (auto* s : ring) {
            trace::block(*s);
        }
    }
    trace::setSink(nullptr);
    const auto packed = layout::applyProfileGuidedLayout(profile).layout;

    const auto after = runRing(500, packed);
    EXPECT_LT(after.l1i_misses, before.l1i_misses / 2)
        << "packing must cut instruction-cache misses substantially";
    EXPECT_LT(after.cycles, before.cycles);

    // The default layout is unchanged for every other model.
    const auto again = runRing(500, nullptr);
    EXPECT_EQ(again.l1i_misses, before.l1i_misses);
    EXPECT_EQ(again.cycles, before.cycles);
}

} // namespace
} // namespace vtrans
