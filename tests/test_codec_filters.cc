/**
 * @file
 * Unit tests for the in-loop deblocking filter and the loop-flag
 * (Graphite-style) schedules: threshold tables, edge smoothing, QP-map
 * behaviour, and exact equivalence of the restructured loops.
 */

#include <gtest/gtest.h>

#include <vector>

#include "codec/deblock.h"
#include "codec/loopflags.h"
#include "codec/lookahead.h"
#include "common/rng.h"
#include "video/frame.h"
#include "video/generate.h"
#include "video/quality.h"

namespace vtrans {
namespace {

using codec::DeblockConfig;
using video::Frame;
using video::Plane;

Frame
blockyFrame(int w, int h)
{
    // Strong 8x8 blocking artifacts: constant blocks of random level.
    Frame f(w, h);
    Rng rng(31);
    for (int by = 0; by < h; by += 8) {
        for (int bx = 0; bx < w; bx += 8) {
            const uint8_t level =
                static_cast<uint8_t>(96 + rng.below(64));
            for (int y = 0; y < 8; ++y) {
                for (int x = 0; x < 8; ++x) {
                    f.at(Plane::Y, bx + x, by + y) = level;
                }
            }
        }
    }
    return f;
}

/** Sum of absolute luma steps across all 8-aligned vertical edges. */
int64_t
verticalEdgeEnergy(const Frame& f)
{
    int64_t energy = 0;
    for (int x = 8; x < f.width(); x += 8) {
        for (int y = 0; y < f.height(); ++y) {
            energy += std::abs(static_cast<int>(f.at(Plane::Y, x, y))
                               - f.at(Plane::Y, x - 1, y));
        }
    }
    return energy;
}

TEST(Deblock, ThresholdsGrowWithQp)
{
    EXPECT_EQ(codec::deblockAlpha(0, 0), 0) << "low QP: filter off";
    EXPECT_EQ(codec::deblockBeta(10, 0), 0);
    int prev_alpha = -1;
    for (int qp = 16; qp <= 51; ++qp) {
        const int alpha = codec::deblockAlpha(qp, 0);
        EXPECT_GE(alpha, prev_alpha);
        prev_alpha = alpha;
    }
    EXPECT_GT(codec::deblockAlpha(30, 2), codec::deblockAlpha(30, -2))
        << "positive offsets strengthen filtering";
}

TEST(Deblock, SmoothsBlockEdges)
{
    Frame f = blockyFrame(64, 48);
    const int64_t before = verticalEdgeEnergy(f);

    std::vector<int> qp_map(4 * 3, 32);
    codec::deblockFrame(f, {true, 0, 0}, qp_map.data(), 4, 3);
    EXPECT_LT(verticalEdgeEnergy(f), before)
        << "the loop filter must reduce blocking energy";
}

TEST(Deblock, DisabledIsIdentity)
{
    Frame f = blockyFrame(64, 48);
    Frame copy(64, 48);
    copy.copyFrom(f);
    std::vector<int> qp_map(4 * 3, 32);
    codec::deblockFrame(f, {false, 0, 0}, qp_map.data(), 4, 3);
    EXPECT_EQ(video::planeMse(f, copy, Plane::Y), 0.0);
}

TEST(Deblock, LowQpLeavesDetailAlone)
{
    Frame f = blockyFrame(64, 48);
    Frame copy(64, 48);
    copy.copyFrom(f);
    std::vector<int> qp_map(4 * 3, 4); // fine quantization: alpha == 0
    codec::deblockFrame(f, {true, 0, 0}, qp_map.data(), 4, 3);
    EXPECT_EQ(video::planeMse(f, copy, Plane::Y), 0.0)
        << "at low QP the filter must not touch the picture";
}

TEST(Deblock, InterchangedScheduleIsBitExact)
{
    Frame a = blockyFrame(96, 64);
    Frame b(96, 64);
    b.copyFrom(a);
    std::vector<int> qp_map(6 * 4, 30);

    codec::deblockFrame(a, {true, 0, 0}, qp_map.data(), 6, 4);
    {
        const codec::BuildScope interchanged({true, false},
                                             codec::KernelModel::Scalar);
        codec::deblockFrame(b, {true, 0, 0}, qp_map.data(), 6, 4);
    }

    EXPECT_EQ(video::planeMse(a, b, Plane::Y), 0.0);
    EXPECT_EQ(video::planeMse(a, b, Plane::Cb), 0.0);
    EXPECT_EQ(video::planeMse(a, b, Plane::Cr), 0.0);
}

TEST(Lookahead, FusedCostsAreBitExact)
{
    video::VideoSpec spec;
    spec.name = "f";
    spec.width = 64;
    spec.height = 48;
    spec.fps = 30;
    spec.seconds = 0.2;
    spec.entropy = 4.0;
    spec.seed = 17;
    const auto frames = video::generateVideo(spec);

    const auto plain =
        codec::estimateFrameCosts(frames[2], &frames[1]);
    const codec::BuildScope fusion({false, true},
                                   codec::KernelModel::Scalar);
    const auto fused =
        codec::estimateFrameCosts(frames[2], &frames[1]);

    EXPECT_EQ(plain.intra_cost, fused.intra_cost);
    EXPECT_EQ(plain.inter_cost, fused.inter_cost);
}

TEST(Deblock, HigherQpMapFiltersMore)
{
    Frame gentle = blockyFrame(64, 48);
    Frame strong(64, 48);
    strong.copyFrom(gentle);

    std::vector<int> qp_low(4 * 3, 20);
    std::vector<int> qp_high(4 * 3, 45);
    codec::deblockFrame(gentle, {true, 0, 0}, qp_low.data(), 4, 3);
    codec::deblockFrame(strong, {true, 0, 0}, qp_high.data(), 4, 3);

    EXPECT_LE(verticalEdgeEnergy(strong), verticalEdgeEnergy(gentle))
        << "coarser quantization must trigger stronger filtering";
}

} // namespace
} // namespace vtrans
