/**
 * @file
 * Property-based parameterized sweeps over the codec: for every sampled
 * combination of content complexity and encoder parameters, the defining
 * invariants must hold — decodability, encoder/decoder reconstruction
 * agreement, determinism, quality/size monotonicity, and syntax-level
 * robustness of the bitstream reader.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "chunk/chunk.h"
#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/params.h"
#include "codec/syntax.h"
#include "common/rng.h"
#include "video/generate.h"
#include "video/quality.h"

namespace vtrans {
namespace {

using codec::BitWriter;
using codec::Encoder;
using codec::EncoderParams;
using codec::FrameType;
using video::Frame;
using video::VideoSpec;

VideoSpec
spec(double entropy, int frames = 8, uint64_t seed = 42)
{
    VideoSpec s;
    s.name = "prop";
    s.width = 48;
    s.height = 32;
    s.fps = 30;
    s.seconds = frames / 30.0;
    s.entropy = entropy;
    s.seed = seed;
    return s;
}

// ---- Roundtrip invariants over (entropy x crf) -----------------------------

class EntropyCrfProperty
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
};

TEST_P(EntropyCrfProperty, DecodesToEncoderReconstruction)
{
    const auto [entropy, crf] = GetParam();
    const VideoSpec s = spec(entropy);
    const auto frames = video::generateVideo(s);

    EncoderParams p = codec::presetParams("medium");
    p.crf = crf;
    Encoder enc(p, s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);

    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());

    // The decoder output must equal the encoder's internal
    // reconstruction: per-frame PSNR against the source must agree.
    double total = 0.0;
    for (size_t i = 0; i < frames.size(); ++i) {
        total += video::framePsnr(frames[i], decoded.frames[i]);
    }
    EXPECT_NEAR(total / frames.size(), stats.psnr, 0.5)
        << "entropy " << entropy << " crf " << crf;
}

TEST_P(EntropyCrfProperty, EncodeIsDeterministic)
{
    const auto [entropy, crf] = GetParam();
    const VideoSpec s = spec(entropy);
    const auto frames = video::generateVideo(s);

    EncoderParams p = codec::presetParams("medium");
    p.crf = crf;
    const auto a = Encoder(p, s.fps).encode(frames);
    const auto b = Encoder(p, s.fps).encode(frames);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EntropyCrfProperty,
    ::testing::Combine(::testing::Values(0.2, 3.5, 7.7),
                       ::testing::Values(5, 23, 40, 51)));

// ---- Rate-control modes x content -----------------------------------------

class RcModeProperty
    : public ::testing::TestWithParam<codec::RateControl>
{
};

TEST_P(RcModeProperty, ProducesDecodableSaneStream)
{
    const VideoSpec s = spec(4.0, 12);
    const auto frames = video::generateVideo(s);

    EncoderParams p = codec::presetParams("medium");
    p.rc = GetParam();
    p.bitrate_kbps = 400.0;
    p.vbv_maxrate_kbps = 500.0;
    p.vbv_buffer_kbits = 250.0;
    Encoder enc(p, s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);

    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 20.0)
        << codec::toString(GetParam());
    EXPECT_GT(stats.total_bits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RcModeProperty,
    ::testing::Values(codec::RateControl::CQP, codec::RateControl::CRF,
                      codec::RateControl::ABR,
                      codec::RateControl::TwoPass,
                      codec::RateControl::CBR, codec::RateControl::VBV));

// ---- Preset ladder ----------------------------------------------------------

class PresetProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetProperty, RoundtripsAtTableIIRefs)
{
    const VideoSpec s = spec(3.0, 6);
    const auto frames = video::generateVideo(s);

    // Use the preset's own refs column too (Table II bottom row).
    EncoderParams p = codec::presetParams(GetParam(), true);
    Encoder enc(p, s.fps);
    const auto stream = enc.encode(frames);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 24.0)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Ladder, PresetProperty,
                         ::testing::Values("ultrafast", "superfast",
                                           "veryfast", "faster", "fast",
                                           "medium", "slow", "slower"));

// ---- Bitstream robustness ----------------------------------------------------

TEST(DecoderRobustness, RejectsBadMagic)
{
    std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0};
    EXPECT_DEATH(codec::decode(junk), "not a VX1 stream");
}

TEST(DecoderRobustness, RejectsTruncatedStream)
{
    const VideoSpec s = spec(2.0, 4);
    const auto frames = video::generateVideo(s);
    Encoder enc(codec::presetParams("medium"), s.fps);
    auto stream = enc.encode(frames);
    stream.resize(stream.size() / 3); // chop mid-frame
    EXPECT_DEATH(codec::decode(stream), "bitstream underrun");
}

TEST(DecoderRobustness, RejectsEmptyInput)
{
    std::vector<uint8_t> empty;
    EXPECT_DEATH(codec::decode(empty), "underrun");
}

// Malformed 1x1-MB streams, written element by element (codec/syntax.h).

/** The sequence header of a 1x1-MB, 30 fps stream, deblocking off. */
void
putSequenceHeader(BitWriter& bw, int frames)
{
    bw.putBits(codec::kMagic, 32);
    for (const int v : {1, 1, 30, frames, 0}) {
        bw.putUe(static_cast<uint32_t>(v));
    }
    bw.putSe(0);
    bw.putSe(0);
}

/** A frame header with qp_base 26. */
void
putFrameHeader(BitWriter& bw, FrameType type, int display, int refs)
{
    for (const int v : {static_cast<int>(type), display, 26, refs}) {
        bw.putUe(static_cast<uint32_t>(v));
    }
}

/** A 1x1-MB stream of an I frame (one Intra16 DC macroblock without
 *  residual) and then a frame of `type` at display 1 with one reference,
 *  whose macroblock elements the caller writes. */
BitWriter
afterIntraFrame(FrameType type)
{
    BitWriter bw;
    putSequenceHeader(bw, 2);
    putFrameHeader(bw, FrameType::I, 0, 0);
    for (const int v : {0, 2, 0, 0}) { // Intra16, DC, qp_delta, cbp
        bw.putUe(static_cast<uint32_t>(v));
    }
    putFrameHeader(bw, type, 1, 1);
    return bw;
}

TEST(DecoderRobustness, RejectsSkipWithoutReference)
{
    BitWriter bw;
    putSequenceHeader(bw, 1);
    putFrameHeader(bw, FrameType::P, 0, 0);
    bw.putUe(0); // Skip
    EXPECT_DEATH(codec::decode(bw.finish()),
                 "mb_mode 0 with num_ref_active 0");
}

TEST(DecoderRobustness, RejectsRefIndexPastActiveRefs)
{
    BitWriter bw = afterIntraFrame(FrameType::P);
    bw.putUe(1); // Inter16
    bw.putUe(1); // ref_idx
    for (int i = 0; i < 3; ++i) {
        bw.putSe(0); // mvd_x, mvd_y, qp_delta
    }
    bw.putUe(0); // cbp
    EXPECT_DEATH(codec::decode(bw.finish()), "ref_idx 1 \\(limit 1\\)");
}

TEST(DecoderRobustness, RejectsUnknownMbMode)
{
    BitWriter bw = afterIntraFrame(FrameType::P);
    bw.putUe(5);
    bw.putSe(0);
    bw.putUe(0);
    EXPECT_DEATH(codec::decode(bw.finish()), "mb_mode 5");
}

TEST(DecoderRobustness, RejectsUnknownBDirection)
{
    BitWriter bw = afterIntraFrame(FrameType::B);
    bw.putUe(1); // Inter16
    bw.putUe(3); // b_dir
    bw.putSe(0);
    bw.putUe(0);
    EXPECT_DEATH(codec::decode(bw.finish()), "b_dir 3");
}

TEST(DecoderRobustness, RejectsUnknownIntraModes)
{
    BitWriter i16;
    putSequenceHeader(i16, 1);
    putFrameHeader(i16, FrameType::I, 0, 0);
    i16.putUe(0); // Intra16
    i16.putUe(4);
    i16.putSe(0);
    i16.putUe(0);
    EXPECT_DEATH(codec::decode(i16.finish()), "intra16_mode 4");

    BitWriter i4;
    putSequenceHeader(i4, 1);
    putFrameHeader(i4, FrameType::I, 0, 0);
    i4.putUe(1); // Intra4
    for (int b = 0; b < 16; ++b) {
        i4.putUe(b == 0 ? 5 : 0);
    }
    i4.putSe(0);
    i4.putUe(0);
    EXPECT_DEATH(codec::decode(i4.finish()), "intra4_mode 5");
}

TEST(DecoderRobustness, StitchRejectsUnknownMbMode)
{
    BitWriter bw = afterIntraFrame(FrameType::P);
    bw.putUe(9);
    bw.putSe(0);
    bw.putUe(0);
    const std::vector<uint8_t> stream = bw.finish();
    EXPECT_DEATH(chunk::stitch({&stream}), "mb_mode 9");
}

// ---- Edge-geometry and content edge cases -----------------------------------

TEST(CodecEdge, SingleMacroblockFrame)
{
    VideoSpec s = spec(3.0, 4);
    s.width = 16;
    s.height = 16;
    const auto frames = video::generateVideo(s);
    Encoder enc(codec::presetParams("medium"), s.fps);
    const auto stream = enc.encode(frames);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 20.0);
}

TEST(CodecEdge, SingleFrameClip)
{
    const VideoSpec s = spec(3.0, 1);
    const auto frames = video::generateVideo(s);
    Encoder enc(codec::presetParams("medium"), s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);
    EXPECT_EQ(stats.i_frames, 1);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), 1u);
}

TEST(CodecEdge, FlatContentCompressesExtremely)
{
    std::vector<Frame> frames;
    for (int i = 0; i < 6; ++i) {
        frames.emplace_back(48, 32);
        frames.back().fill(128, 128, 128);
    }
    Encoder enc(codec::presetParams("medium"), 30.0);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);
    // A static gray clip must cost almost nothing after the first frame.
    const auto decoded = codec::decode(stream);
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 45.0);
    EXPECT_LT(stats.total_bits / frames.size(), 2000u);
    EXPECT_GT(stats.mb_skip, 0u) << "static content must produce skips";
}

TEST(CodecEdge, NoiseContentStaysDecodable)
{
    Rng rng(99);
    std::vector<Frame> frames;
    for (int i = 0; i < 4; ++i) {
        frames.emplace_back(48, 32);
        for (int y = 0; y < 32; ++y) {
            for (int x = 0; x < 48; ++x) {
                frames.back().at(video::Plane::Y, x, y) =
                    static_cast<uint8_t>(rng.below(256));
            }
        }
    }
    EncoderParams p = codec::presetParams("medium");
    p.crf = 30;
    Encoder enc(p, 30.0);
    const auto stream = enc.encode(frames);
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
}

TEST(CodecEdge, LongGopWithManyBframes)
{
    const VideoSpec s = spec(1.0, 24, 7);
    const auto frames = video::generateVideo(s);
    EncoderParams p = codec::presetParams("veryslow"); // bframes 8
    p.subme = 4;                                       // keep it quick
    p.me = codec::MeMethod::Hex;
    p.b_adapt = 0; // fixed pattern: force the long B runs this test wants
    Encoder enc(p, s.fps);
    codec::EncodeStats stats;
    const auto stream = enc.encode(frames, &stats);
    EXPECT_GT(stats.b_frames, stats.p_frames)
        << "8 B-frames between anchors on calm content";
    const auto decoded = codec::decode(stream);
    ASSERT_EQ(decoded.frames.size(), frames.size());
    EXPECT_GT(video::sequencePsnr(frames, decoded.frames), 28.0);
}

} // namespace
} // namespace vtrans
