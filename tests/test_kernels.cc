/**
 * @file
 * Differential tests of the kernel-strategies layer: every vector backend
 * must return bit-identical results to the scalar reference for every
 * kernel, over randomized blocks, strides, edge-clamped positions, extreme
 * QPs and saturating coefficients — plus wrapper-level identity (probe
 * streams, early-exit paths, whole encodes) and the chroma MC rounding
 * regression.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/dct.h"
#include "codec/loopflags.h"
#include "codec/pixel.h"
#include "codec/strategies/strategies.h"
#include "codec/tables.h"
#include "common/rng.h"
#include "core/workload.h"
#include "farm/runlog.h"
#include "trace/probe.h"
#include "video/frame.h"

namespace {

using namespace vtrans;
using codec::KernelOps;
using video::Frame;
using video::Plane;

/** All tables this build + CPU provides, scalar first. */
std::vector<const KernelOps*>
allBackends()
{
    std::vector<const KernelOps*> backends{&codec::scalarKernels()};
    if (const KernelOps* sse41 = codec::sse41Kernels()) {
        backends.push_back(sse41);
    }
    if (const KernelOps* avx2 = codec::avx2Kernels()) {
        backends.push_back(avx2);
    }
    return backends;
}

/** Restores the auto backend when a test body returns. */
struct IsaGuard
{
    ~IsaGuard() { codec::setKernelIsa("auto"); }
};

Frame
randomFrame(int w, int h, uint64_t seed)
{
    Frame frame(w, h);
    Rng rng(seed);
    for (Plane p : {Plane::Y, Plane::Cb, Plane::Cr}) {
        for (int y = 0; y < frame.planeHeight(p); ++y) {
            for (int x = 0; x < frame.stride(p); ++x) {
                frame.at(p, x, y) = static_cast<uint8_t>(rng.next());
            }
        }
    }
    return frame;
}

TEST(KernelStrategies, ScalarAlwaysAvailable)
{
    const auto isas = codec::availableKernelIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), "scalar");
}

TEST(KernelStrategies, SelectionRoundTrips)
{
    IsaGuard guard;
    for (const auto& isa : codec::availableKernelIsas()) {
        EXPECT_TRUE(codec::setKernelIsa(isa)) << isa;
        EXPECT_EQ(codec::kernelIsa(), isa);
    }
    EXPECT_FALSE(codec::setKernelIsa("neon"));
    EXPECT_FALSE(codec::setKernelIsa(""));
    EXPECT_TRUE(codec::setKernelIsa("auto"));
}

TEST(KernelStrategies, KernelModelParses)
{
    codec::KernelModel model = codec::KernelModel::Scalar;
    EXPECT_TRUE(codec::parseKernelModel("vector", &model));
    EXPECT_EQ(model, codec::KernelModel::Vector);
    EXPECT_FALSE(codec::parseKernelModel("simd", &model));
    EXPECT_EQ(model, codec::KernelModel::Vector);
    EXPECT_TRUE(codec::parseKernelModel("scalar", &model));
    EXPECT_EQ(model, codec::KernelModel::Scalar);

    // A thread runs the scalar model outside any build scope, and a
    // scope restores the previous model on exit.
    EXPECT_FALSE(codec::vectorKernelModel());
    {
        const codec::BuildScope vector({}, codec::KernelModel::Vector);
        EXPECT_TRUE(codec::vectorKernelModel());
        {
            const codec::BuildScope scalar({}, codec::KernelModel::Scalar);
            EXPECT_FALSE(codec::vectorKernelModel());
        }
        EXPECT_TRUE(codec::vectorKernelModel());
        // The choice is per thread.
        bool other_thread = true;
        std::thread([&] { other_thread = codec::vectorKernelModel(); })
            .join();
        EXPECT_FALSE(other_thread);
    }
    EXPECT_FALSE(codec::vectorKernelModel());
}

TEST(KernelDifferential, SadRowsRandomizedStrides)
{
    const auto backends = allBackends();
    Rng rng(101);
    std::vector<uint8_t> cur(64 * 64);
    std::vector<uint8_t> ref(64 * 64);
    for (int iter = 0; iter < 300; ++iter) {
        for (auto& v : cur) {
            v = static_cast<uint8_t>(rng.next());
        }
        for (auto& v : ref) {
            v = static_cast<uint8_t>(rng.next());
        }
        const int w = std::vector<int>{4, 8, 16}[rng.below(3)];
        const int rows = 1 + static_cast<int>(rng.below(16));
        const int cstride = w + static_cast<int>(rng.below(32));
        const int rstride = w + static_cast<int>(rng.below(32));
        const int expected = backends[0]->sad_rows(cur.data(), cstride,
                                                   ref.data(), rstride, w,
                                                   rows);
        for (size_t b = 1; b < backends.size(); ++b) {
            EXPECT_EQ(backends[b]->sad_rows(cur.data(), cstride, ref.data(),
                                            rstride, w, rows),
                      expected)
                << backends[b]->name << " w=" << w << " rows=" << rows;
        }
    }
}

TEST(KernelDifferential, Satd4x4Randomized)
{
    const auto backends = allBackends();
    Rng rng(202);
    std::vector<uint8_t> cur(32 * 32);
    std::vector<uint8_t> pred(32 * 32);
    for (int iter = 0; iter < 500; ++iter) {
        for (auto& v : cur) {
            v = static_cast<uint8_t>(rng.next());
        }
        for (auto& v : pred) {
            v = static_cast<uint8_t>(rng.next());
        }
        const int cstride = 4 + static_cast<int>(rng.below(24));
        const int pstride = 4 + static_cast<int>(rng.below(24));
        const int expected = backends[0]->satd4x4(cur.data(), cstride,
                                                  pred.data(), pstride);
        for (size_t b = 1; b < backends.size(); ++b) {
            EXPECT_EQ(backends[b]->satd4x4(cur.data(), cstride, pred.data(),
                                           pstride),
                      expected)
                << backends[b]->name;
        }
    }
}

TEST(KernelDifferential, DctFullInt16Range)
{
    const auto backends = allBackends();
    Rng rng(303);
    for (int iter = 0; iter < 500; ++iter) {
        int16_t source[16];
        for (auto& v : source) {
            // Full int16 range: the int16 wrap on store must match the
            // scalar static_cast exactly, not just for residual-sized
            // inputs.
            v = static_cast<int16_t>(rng.next());
        }
        int16_t expected_f[16];
        int16_t expected_i[16];
        std::memcpy(expected_f, source, sizeof(source));
        std::memcpy(expected_i, source, sizeof(source));
        backends[0]->forward_dct4x4(expected_f);
        backends[0]->inverse_dct4x4(expected_i);
        for (size_t b = 1; b < backends.size(); ++b) {
            int16_t got[16];
            std::memcpy(got, source, sizeof(source));
            backends[b]->forward_dct4x4(got);
            EXPECT_EQ(0, std::memcmp(got, expected_f, sizeof(got)))
                << backends[b]->name << " forward, iter " << iter;
            std::memcpy(got, source, sizeof(source));
            backends[b]->inverse_dct4x4(got);
            EXPECT_EQ(0, std::memcmp(got, expected_i, sizeof(got)))
                << backends[b]->name << " inverse, iter " << iter;
        }
    }
}

TEST(KernelDifferential, QuantizeExtremeQps)
{
    const auto backends = allBackends();
    Rng rng(404);
    for (const int qp : {0, 1, 26, 51}) {
        const int32_t* mf = codec::quantMfRow(qp);
        const int shift = codec::quantShift(qp);
        for (const bool intra : {true, false}) {
            const int32_t f = (1 << shift) / (intra ? 3 : 6);
            for (int iter = 0; iter < 200; ++iter) {
                int16_t source[16];
                for (auto& v : source) {
                    // Mix of residual-scale and full-range coefficients,
                    // including the int16 extremes.
                    const int kind = static_cast<int>(rng.below(4));
                    v = kind == 0   ? static_cast<int16_t>(rng.next())
                        : kind == 1 ? INT16_MIN
                        : kind == 2 ? INT16_MAX
                                    : static_cast<int16_t>(
                                          rng.range(-511, 511));
                }
                int16_t expected[16];
                std::memcpy(expected, source, sizeof(source));
                const int expected_nz = backends[0]->quantize4x4(
                    expected, mf, f, shift);
                for (size_t b = 1; b < backends.size(); ++b) {
                    int16_t got[16];
                    std::memcpy(got, source, sizeof(source));
                    EXPECT_EQ(backends[b]->quantize4x4(got, mf, f, shift),
                              expected_nz)
                        << backends[b]->name << " qp=" << qp;
                    EXPECT_EQ(0, std::memcmp(got, expected, sizeof(got)))
                        << backends[b]->name << " qp=" << qp;
                }
            }
        }
    }
}

TEST(KernelDifferential, DequantizeSaturates)
{
    const auto backends = allBackends();
    Rng rng(505);
    for (const int qp : {0, 1, 26, 51}) {
        const int32_t* v = codec::dequantVRow(qp);
        const int scale = qp / 6;
        for (int iter = 0; iter < 200; ++iter) {
            int16_t source[16];
            for (auto& c : source) {
                // qp 51 shifts by 8 after a x29 multiply, so full-range
                // levels drive the int16 clamp on both sides; the SIMD
                // pack saturation must agree with the scalar clamp.
                const int kind = static_cast<int>(rng.below(4));
                c = kind == 0   ? static_cast<int16_t>(rng.next())
                    : kind == 1 ? INT16_MIN
                    : kind == 2 ? INT16_MAX
                                : static_cast<int16_t>(rng.range(-64, 64));
            }
            int16_t expected[16];
            std::memcpy(expected, source, sizeof(source));
            backends[0]->dequantize4x4(expected, v, scale);
            for (size_t b = 1; b < backends.size(); ++b) {
                int16_t got[16];
                std::memcpy(got, source, sizeof(source));
                backends[b]->dequantize4x4(got, v, scale);
                EXPECT_EQ(0, std::memcmp(got, expected, sizeof(got)))
                    << backends[b]->name << " qp=" << qp;
            }
        }
    }
}

TEST(KernelDifferential, McBilinearCopyAverage)
{
    const auto backends = allBackends();
    Rng rng(606);
    std::vector<uint8_t> src(96 * 64);
    for (int iter = 0; iter < 200; ++iter) {
        for (auto& v : src) {
            v = static_cast<uint8_t>(rng.next());
        }
        const int w = std::vector<int>{4, 8, 16}[rng.below(3)];
        const int h = std::vector<int>{2, 4, 8, 16}[rng.below(4)];
        const int sstride = 96;
        const uint8_t* base =
            src.data() + rng.below(16) * sstride + rng.below(32);
        // All fraction combos including (0, 0): the chroma wrapper always
        // takes the 4-tap form, so the kernels must handle zero fractions.
        const int fx = static_cast<int>(rng.below(4));
        const int fy = static_cast<int>(rng.below(4));
        uint8_t expected[16 * 16];
        uint8_t got[16 * 16];
        backends[0]->mc_bilinear(expected, w, base, sstride, w, h, fx, fy);
        for (size_t b = 1; b < backends.size(); ++b) {
            std::memset(got, 0xa5, sizeof(got));
            backends[b]->mc_bilinear(got, w, base, sstride, w, h, fx, fy);
            EXPECT_EQ(0, std::memcmp(got, expected,
                                     static_cast<size_t>(w) * h))
                << backends[b]->name << " w=" << w << " h=" << h
                << " fx=" << fx << " fy=" << fy;
        }
        backends[0]->mc_copy(expected, w, base, sstride, w, h);
        for (size_t b = 1; b < backends.size(); ++b) {
            std::memset(got, 0x5a, sizeof(got));
            backends[b]->mc_copy(got, w, base, sstride, w, h);
            EXPECT_EQ(0, std::memcmp(got, expected,
                                     static_cast<size_t>(w) * h))
                << backends[b]->name;
        }
        const int n = 1 + static_cast<int>(rng.below(256));
        uint8_t avg_expected[256];
        uint8_t avg_got[256];
        backends[0]->average(avg_expected, src.data(), src.data() + 1024,
                             n);
        for (size_t b = 1; b < backends.size(); ++b) {
            backends[b]->average(avg_got, src.data(), src.data() + 1024, n);
            EXPECT_EQ(0, std::memcmp(avg_got, avg_expected,
                                     static_cast<size_t>(n)))
                << backends[b]->name << " n=" << n;
        }
    }
}

/** Wrapper-level identity: the public kernels must return the same values
 *  under every backend, including edge-clamped positions and every
 *  early-exit path. */
TEST(WrapperIdentity, SadBlockEdgesAndEarlyExit)
{
    IsaGuard guard;
    const Frame cur = randomFrame(64, 48, 11);
    const Frame ref = randomFrame(64, 48, 22);
    const auto isas = codec::availableKernelIsas();
    struct Case
    {
        int cx, cy, rx, ry, w, h, best;
    };
    const std::vector<Case> cases = {
        {16, 16, 18, 14, 16, 16, INT_MAX}, // Interior.
        {16, 16, -7, -3, 16, 16, INT_MAX}, // Clamped top-left.
        {32, 16, 55, 40, 16, 16, INT_MAX}, // Clamped bottom-right.
        {0, 0, 0, 0, 8, 8, INT_MAX},       // Exact corner.
        {16, 16, 20, 20, 16, 16, 1},       // Early exit on first chunk.
        {16, 16, 17, 17, 16, 16, 900},     // Possible mid-block exit.
        {16, 16, -2, 30, 4, 4, 64},        // Small block, clamped.
    };
    for (const auto& c : cases) {
        ASSERT_TRUE(codec::setKernelIsa("scalar"));
        const int expected = codec::sadBlock(cur, c.cx, c.cy, ref, c.rx,
                                             c.ry, c.w, c.h, c.best);
        for (const auto& isa : isas) {
            ASSERT_TRUE(codec::setKernelIsa(isa));
            EXPECT_EQ(codec::sadBlock(cur, c.cx, c.cy, ref, c.rx, c.ry, c.w,
                                      c.h, c.best),
                      expected)
                << isa;
        }
    }
}

TEST(WrapperIdentity, SadSubpelEdgesAndEarlyExit)
{
    IsaGuard guard;
    const Frame cur = randomFrame(64, 48, 33);
    const Frame ref = randomFrame(64, 48, 44);
    const auto isas = codec::availableKernelIsas();
    struct Case
    {
        int cx, cy, mvx, mvy, w, h, best;
    };
    const std::vector<Case> cases = {
        {16, 16, 5, 7, 16, 16, INT_MAX},    // Interior subpel.
        {16, 16, 4, -8, 16, 16, INT_MAX},   // Interior full-pel.
        {16, 16, -90, -77, 16, 16, INT_MAX}, // Clamped off the edge.
        {48, 32, 70, 61, 8, 8, INT_MAX},    // Clamped bottom-right.
        {16, 16, 3, 2, 16, 16, 1},          // Early exit, first group.
        {16, 16, 1, 1, 8, 8, 300},          // Possible mid-block exit.
        {0, 0, -1, -1, 8, 8, INT_MAX},      // Subpel at the corner.
    };
    for (const auto& c : cases) {
        ASSERT_TRUE(codec::setKernelIsa("scalar"));
        const int expected = codec::sadSubpel(cur, c.cx, c.cy, ref, c.mvx,
                                              c.mvy, c.w, c.h, c.best);
        for (const auto& isa : isas) {
            ASSERT_TRUE(codec::setKernelIsa(isa));
            EXPECT_EQ(codec::sadSubpel(cur, c.cx, c.cy, ref, c.mvx, c.mvy,
                                       c.w, c.h, c.best),
                      expected)
                << isa;
        }
    }
}

TEST(WrapperIdentity, MotionCompensation)
{
    IsaGuard guard;
    const Frame ref = randomFrame(64, 48, 55);
    const auto isas = codec::availableKernelIsas();
    struct Case
    {
        int cx, cy, mvx, mvy, w, h;
    };
    const std::vector<Case> cases = {
        {16, 16, 0, 0, 16, 16},   // Full-pel copy.
        {16, 16, 8, -4, 16, 16},  // Full-pel with displacement.
        {16, 16, 5, 7, 16, 16},   // Subpel interior.
        {16, 16, 6, 0, 16, 16},   // Mixed: fx only.
        {0, 0, -5, -9, 16, 16},   // Subpel clamped top-left.
        {48, 32, 61, 70, 16, 16}, // Clamped bottom-right.
        {16, 16, -3, 1, 8, 8},    // Odd negative MV.
    };
    for (const auto& c : cases) {
        uint8_t expected[16 * 16];
        uint8_t got[16 * 16];
        ASSERT_TRUE(codec::setKernelIsa("scalar"));
        codec::mcLumaBlock(expected, c.w, ref, c.cx, c.cy, c.mvx, c.mvy,
                           c.w, c.h, 0);
        for (const auto& isa : isas) {
            ASSERT_TRUE(codec::setKernelIsa(isa));
            std::memset(got, 0, sizeof(got));
            codec::mcLumaBlock(got, c.w, ref, c.cx, c.cy, c.mvx, c.mvy, c.w,
                               c.h, 0);
            EXPECT_EQ(0, std::memcmp(got, expected,
                                     static_cast<size_t>(c.w) * c.h))
                << "luma " << isa << " mv=(" << c.mvx << "," << c.mvy
                << ")";
        }
        ASSERT_TRUE(codec::setKernelIsa("scalar"));
        codec::mcChromaBlock(expected, c.w / 2, ref, Plane::Cb, c.cx / 2,
                             c.cy / 2, c.mvx, c.mvy, c.w / 2, c.h / 2, 0);
        for (const auto& isa : isas) {
            ASSERT_TRUE(codec::setKernelIsa(isa));
            std::memset(got, 0, sizeof(got));
            codec::mcChromaBlock(got, c.w / 2, ref, Plane::Cb, c.cx / 2,
                                 c.cy / 2, c.mvx, c.mvy, c.w / 2, c.h / 2,
                                 0);
            EXPECT_EQ(0,
                      std::memcmp(got, expected,
                                  static_cast<size_t>(c.w / 2) * (c.h / 2)))
                << "chroma " << isa << " mv=(" << c.mvx << "," << c.mvy
                << ")";
        }
    }
}

/**
 * Regression for the chroma MV halving: mvx / 2 truncated toward zero, so
 * negative odd luma MVs left the chroma prediction biased one eighth-pel
 * toward zero. The halving must floor (>> 1), moving the sampling window
 * monotonically left as the MV goes more negative.
 */
TEST(ChromaMc, NegativeMvFloorRounding)
{
    Frame ref(64, 48);
    // Chroma step edge: columns < 4 are 0, columns >= 4 are 100.
    for (int y = 0; y < ref.chromaHeight(); ++y) {
        for (int x = 0; x < ref.chromaWidth(); ++x) {
            ref.at(Plane::Cb, x, y) = x < 4 ? 0 : 100;
        }
    }
    // One chroma pixel at (4, 4), dy = 0 throughout: the prediction is the
    // horizontal bilinear ((4-dx)*p(xi) + dx*p(xi+1) + 2) >> 2 at
    // xi = (16 + (mvx >> 1)) >> 2.
    auto predict = [&](int mvx) {
        uint8_t dst[1];
        codec::mcChromaBlock(dst, 1, ref, Plane::Cb, 4, 4, mvx, 0, 1, 1, 0);
        return static_cast<int>(dst[0]);
    };
    EXPECT_EQ(predict(0), 100);  // cmv 0:  xi=4, dx=0 -> p(4).
    EXPECT_EQ(predict(-1), 75);  // cmv -1: xi=3, dx=3 -> (0 + 300 + 2)>>2.
    EXPECT_EQ(predict(-2), 75);  // cmv -1 again (floor pairs -1 and -2).
    EXPECT_EQ(predict(-3), 50);  // cmv -2: xi=3, dx=2 -> (0 + 200 + 2)>>2.
    EXPECT_EQ(predict(-4), 50);  // cmv -2 again.
    // The truncating bug collapsed mvx -1 onto 0 (both predicted 100) and
    // paired -2/-3 instead of -1/-2; positive MVs must be unaffected.
    EXPECT_EQ(predict(1), 100); // cmv 0 (floor(0.5) = 0).
    EXPECT_EQ(predict(2), 100); // cmv 1: xi=4, dx=1 -> both taps are 100.
}

/** Records every probe event for stream-identity comparison. */
class RecordingSink : public trace::ProbeSink
{
  public:
    struct Event
    {
        int kind;
        uint32_t site;
        uint64_t addr;
        uint32_t bytes;
        bool taken;

        bool
        operator==(const Event& o) const
        {
            return std::tie(kind, site, addr, bytes, taken)
                   == std::tie(o.kind, o.site, o.addr, o.bytes, o.taken);
        }
    };

    void
    onBlock(const trace::CodeSite& site) override
    {
        events.push_back({0, site.id, 0, 0, false});
    }
    void
    onBranch(const trace::CodeSite& site, bool taken) override
    {
        events.push_back({1, site.id, 0, 0, taken});
    }
    void
    onLoad(uint64_t addr, uint32_t bytes) override
    {
        events.push_back({2, 0, addr, bytes, false});
    }
    void
    onStore(uint64_t addr, uint32_t bytes) override
    {
        events.push_back({3, 0, addr, bytes, false});
    }

    std::vector<Event> events;
};

/** The probe stream emitted by the wrappers must not depend on the
 *  backend — events come from the wrappers, never from the ops. */
TEST(WrapperIdentity, ProbeStreamBackendInvariant)
{
    IsaGuard guard;
    const Frame cur = randomFrame(64, 48, 66);
    const Frame ref = randomFrame(64, 48, 77);
    const auto drive = [&]() {
        (void)codec::sadBlock(cur, 16, 16, ref, 14, 18, 16, 16, INT_MAX);
        (void)codec::sadBlock(cur, 16, 16, ref, -4, -4, 16, 16, 500);
        (void)codec::sadSubpel(cur, 16, 16, ref, 5, 7, 16, 16, INT_MAX);
        uint8_t pred[16 * 16];
        codec::mcLumaBlock(pred, 16, ref, 16, 16, 5, 7, 16, 16,
                           static_cast<uint64_t>(codec::Scratch::Pred));
        (void)codec::satdBlock(cur, 16, 16, pred, 16, 16, 16,
                               static_cast<uint64_t>(codec::Scratch::Pred));
        codec::mcChromaBlock(pred, 8, ref, Plane::Cb, 8, 8, -3, 5, 8, 8,
                             static_cast<uint64_t>(codec::Scratch::Pred));
        int16_t block[16];
        for (int i = 0; i < 16; ++i) {
            block[i] = static_cast<int16_t>(17 * i - 120);
        }
        codec::forwardDct4x4(block);
        (void)codec::quantize4x4(block, 26, true);
        codec::dequantize4x4(block, 26);
        codec::inverseDct4x4(block);
    };

    std::vector<RecordingSink::Event> expected;
    for (const auto& isa : codec::availableKernelIsas()) {
        ASSERT_TRUE(codec::setKernelIsa(isa));
        RecordingSink sink;
        trace::setSink(&sink);
        drive();
        trace::setSink(nullptr);
        if (expected.empty()) {
            expected = sink.events;
            ASSERT_FALSE(expected.empty());
        } else {
            EXPECT_EQ(sink.events.size(), expected.size()) << isa;
            EXPECT_TRUE(sink.events == expected) << isa;
        }
    }
}

/** Whole-encode identity: same bitstream bytes and fingerprint from every
 *  backend. */
TEST(EncodeIdentity, BitstreamAcrossBackends)
{
    IsaGuard guard;
    core::RunConfig config;
    config.video = "funny";
    config.seconds = 0.2;
    config.keep_output = true;
    core::mezzanine(config.video, config.seconds);

    std::vector<uint8_t> expected_output;
    uint64_t expected_print = 0;
    bool first = true;
    for (const auto& isa : codec::availableKernelIsas()) {
        ASSERT_TRUE(codec::setKernelIsa(isa));
        const core::RunResult result = core::runInstrumented(config);
        if (first) {
            first = false;
            expected_output = result.output;
            expected_print = farm::fingerprint(result);
            ASSERT_FALSE(expected_output.empty());
        } else {
            EXPECT_EQ(result.output, expected_output) << isa;
            EXPECT_EQ(farm::fingerprint(result), expected_print) << isa;
        }
    }
}

/** The vector probe model is opt-in: ON it retires fewer, wider
 *  instructions (Top-down shifts away from Frontend/Retiring); OFF (the
 *  default) the simulation is bit-identical before and after — running
 *  the vector sites must not perturb the default layout. */
TEST(VectorModel, OptInShiftAndDefaultIdentity)
{
    IsaGuard guard;
    core::RunConfig config;
    config.video = "funny";
    config.seconds = 0.2;
    config.keep_output = true;
    core::mezzanine(config.video, config.seconds);

    const core::RunResult base = core::runInstrumented(config);

    core::RunConfig vector = config;
    vector.binary.kernels = codec::KernelModel::Vector;
    const core::RunResult vec = core::runInstrumented(vector);

    // The cost model must not touch pixels: identical bitstream.
    EXPECT_EQ(vec.output, base.output);
    // Vector kernels retire far fewer instructions and fetch fewer
    // code bytes for the same work.
    EXPECT_LT(vec.core.instructions, base.core.instructions);
    EXPECT_LT(vec.core.l1i_accesses, base.core.l1i_accesses);

    // Back on the default model, results are bit-identical to before the
    // vector sites ever ran.
    const core::RunResult restored = core::runInstrumented(config);
    EXPECT_EQ(restored.output, base.output);
    EXPECT_EQ(farm::fingerprint(restored), farm::fingerprint(base));
}

} // namespace
