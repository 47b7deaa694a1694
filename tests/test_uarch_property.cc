/**
 * @file
 * Property-based parameterized sweeps over the microarchitecture models:
 * conservation laws of the Top-down accounting, determinism across
 * configurations, cache inclusion/latency invariants, and predictor
 * sanity under adversarial streams.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trace/probe.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/config.h"
#include "uarch/core.h"

namespace vtrans {
namespace {

using namespace uarch;

/** A reusable mixed synthetic workload driven by a seed. */
void
runMixedWorkload(uint64_t seed, int n)
{
    VT_SITE(alu, "uprop.alu", 48, 6, Block);
    VT_SITE(consumer, "uprop.consumer", 64, 8, BlockLoadDep);
    VT_SITE(br, "uprop.branch", 16, 1, Branch);
    VT_SITE(brd, "uprop.branchdep", 16, 1, BranchLoadDep);
    Rng rng(seed);
    uint64_t addr = 0x600000000ull;
    for (int i = 0; i < n; ++i) {
        trace::block(alu);
        trace::load(addr + rng.below(1 << 18), 8);
        trace::block(consumer);
        if (rng.chance(0.2)) {
            trace::store(addr + rng.below(1 << 16), 4);
        }
        trace::branch(rng.chance(0.5) ? br : brd, rng.chance(0.6));
    }
}

class ConfigProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ConfigProperty, TopdownConservation)
{
    CoreModel model(configByName(GetParam()));
    trace::setSink(&model);
    runMixedWorkload(11, 40000);
    trace::setSink(nullptr);
    const CoreStats s = model.finish();

    // Slots partition exactly.
    EXPECT_EQ(s.slots_retiring + s.slots_frontend + s.slots_bad_spec
                  + s.slots_backend_memory + s.slots_backend_core,
              s.slots_total);
    // Retiring slots == instructions; cycles * width == total slots.
    EXPECT_EQ(s.slots_retiring, s.instructions);
    EXPECT_EQ(s.slots_total, s.cycles * s.width);
    // Resource-stall slots are a subset of backend slots.
    EXPECT_LE(s.slots_rob_stall + s.slots_rs_stall + s.slots_sb_stall,
              s.slots_backend_memory + s.slots_backend_core);
    // Misses never exceed accesses.
    EXPECT_LE(s.l1d_misses, s.l1d_accesses);
    EXPECT_LE(s.l1i_misses, s.l1i_accesses);
    EXPECT_LE(s.branch_mispredicts, s.branches);
}

TEST_P(ConfigProperty, DeterministicReplay)
{
    auto run = [&] {
        CoreModel model(configByName(GetParam()));
        trace::setSink(&model);
        runMixedWorkload(77, 20000);
        trace::setSink(nullptr);
        return model.finish();
    };
    const CoreStats a = run();
    const CoreStats b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1d_misses, b.l1d_misses);
    EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
    EXPECT_EQ(a.slots_backend_memory, b.slots_backend_memory);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigProperty,
                         ::testing::Values("baseline", "fe_op", "be_op1",
                                           "be_op2", "bs_op"));

// ---- Cache invariants over geometries --------------------------------------

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>>
{
};

TEST_P(CacheGeometry, WorkingSetBoundary)
{
    const auto [size, assoc] = GetParam();
    Cache c("p", {size, assoc, 64});
    // Fill exactly to capacity: second pass must be all hits.
    for (uint64_t a = 0; a < size; a += 64) {
        c.access(a);
    }
    const uint64_t cold = c.misses();
    EXPECT_EQ(cold, size / 64);
    for (uint64_t a = 0; a < size; a += 64) {
        EXPECT_TRUE(c.access(a));
    }
    EXPECT_EQ(c.misses(), cold);
    // 2x the capacity with LRU and a cyclic pattern: every access misses.
    c.reset();
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t a = 0; a < 2 * size; a += 64) {
            c.access(a);
        }
    }
    EXPECT_EQ(c.misses(), 3 * 2 * (size / 64));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair(4096u, 4u),
                      std::make_pair(8192u, 8u),
                      std::make_pair(32768u, 8u),
                      std::make_pair(131072u, 16u)));

TEST(CacheProperty, LatencyOrderingAcrossLevels)
{
    LatencyParams lat;
    EXPECT_LT(lat.l1, lat.l2);
    EXPECT_LT(lat.l2, lat.l3);
    EXPECT_LT(lat.l3, lat.l4);
    EXPECT_LT(lat.l4, lat.memory);

    Cache l1d("L1d", {4096, 8, 64});
    OuterLevels outer({32768, 8, 64}, {131072, 16, 64}, 262144);
    // Deeper levels never return faster than shallower ones.
    const auto cold = hierarchyAccess(l1d, outer, lat, 0x123000);
    const auto warm = hierarchyAccess(l1d, outer, lat, 0x123000);
    EXPECT_GT(cold.latency, warm.latency);
    EXPECT_EQ(warm.latency, lat.l1);
}

// ---- Predictor properties ----------------------------------------------------

class PredictorProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PredictorProperty, LearnsStrongBiasPerBranch)
{
    auto p = makePredictor(GetParam());
    // 64 branches, alternating bias directions; after warmup, accuracy
    // on each must be high.
    int correct = 0;
    int total = 0;
    for (int round = 0; round < 400; ++round) {
        for (uint64_t b = 0; b < 64; ++b) {
            const bool taken = (b & 1) != 0;
            const uint64_t pc = 0x400000 + b * 4;
            const bool pred = p->predict(pc);
            if (round >= 50) {
                correct += pred == taken;
                ++total;
            }
            p->update(pc, taken);
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.98) << GetParam();
}

TEST_P(PredictorProperty, NeverCrashesOnRandomStream)
{
    auto p = makePredictor(GetParam());
    Rng rng(123);
    for (int i = 0; i < 50000; ++i) {
        const uint64_t pc = 0x400000 + rng.below(1 << 16) * 4;
        p->predict(pc);
        p->update(pc, rng.chance(0.5));
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Families, PredictorProperty,
                         ::testing::Values("pentium_m", "tage"));

// ---- MSHR / MLP -------------------------------------------------------------

TEST(CoreProperty, MshrBoundsMlp)
{
    // A burst of independent misses: with fewer MSHRs the same trace
    // must take longer (misses serialize).
    auto run = [](int mshrs) {
        CoreParams p = baselineConfig();
        p.mshr_entries = mshrs;
        VT_SITE(site, "uprop.mshr", 32, 1, Block);
        CoreModel model(p);
        trace::setSink(&model);
        uint64_t addr = 0x700000000ull;
        for (int i = 0; i < 20000; ++i) {
            trace::block(site);
            trace::load(addr, 8);
            addr += 4096;
        }
        trace::setSink(nullptr);
        return model.finish().cycles;
    };
    EXPECT_GT(run(1), run(10));
}

} // namespace
} // namespace vtrans
