/**
 * @file
 * Tests of profile collection and profile-guided relayout: counting,
 * edge affinity, Pettis-Hansen chain packing, branch polarity flips, and
 * the measurable frontend improvement in the simulator.
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

    const auto result = layout::applyProfileGuidedLayout(profile);
    // a -> b is the hottest chain in this profile: b must directly follow
    // a in the new layout (modulo alignment).
    EXPECT_GE(b.address, a.address + a.bytes);
    EXPECT_LE(b.address, a.address + a.bytes + 16);
    EXPECT_GT(result.chains, 0);
    EXPECT_LT(result.span_after, result.span_before)
        << "relayout must shrink the overall footprint (padding removed)";

    trace::registry().resetLayout();
    EXPECT_NE(b.address, a.address + a.bytes)
        << "resetLayout must restore the padded default";
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
    EXPECT_TRUE(hot_taken.invert);
    EXPECT_FALSE(hot_nt.invert);
    EXPECT_GE(result.inverted_branches, 1);
    trace::registry().resetLayout();
    EXPECT_FALSE(hot_taken.invert);
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

    layout::applyProfileGuidedLayout(profile);
    EXPECT_LT(hot.address, cold.address)
        << "cold block must be placed after the hot region";
    trace::registry().resetLayout();
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
    trace::registry().resetLayout();

    auto runRing = [&](int reps) {
        uarch::CoreModel model(uarch::baselineConfig());
        trace::setSink(&model);
        for (int r = 0; r < reps; ++r) {
            for (auto* s : ring) {
                trace::block(*s);
            }
        }
        trace::setSink(nullptr);
        return model.finish();
    };

    const auto before = runRing(500);

    layout::ProfileCollector profile;
    trace::setSink(&profile);
    for (int r = 0; r < 10; ++r) {
        for (auto* s : ring) {
            trace::block(*s);
        }
    }
    trace::setSink(nullptr);
    layout::applyProfileGuidedLayout(profile);

    const auto after = runRing(500);
    trace::registry().resetLayout();

    EXPECT_LT(after.l1i_misses, before.l1i_misses / 2)
        << "packing must cut instruction-cache misses substantially";
    EXPECT_LT(after.cycles, before.cycles);
}

} // namespace
} // namespace vtrans
