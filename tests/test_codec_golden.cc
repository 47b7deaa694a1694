/**
 * @file
 * Golden digests of the virtual binary. The probe events the codec emits
 * define the simulated program, and the bitstream it writes is its
 * functional result; host-side rewrites of the codec may change how the
 * host computes, never what it emits. Each case below hashes (FNV-1a)
 * the full probe-event stream and the bytes the case produced, and
 * compares both against digests recorded before any such rewrite:
 *
 *   - every preset x crf {1, 26, 51}, under both kernel models;
 *   - the mezzanine encode (crf 10) of the source clip;
 *   - `codec::decode` of a transcoded stream (events + decoded pixels);
 *   - `chunk::split` of the mezzanine plus `chunk::stitch` of its slices.
 *
 * On a mismatch the test prints the case's actual digests as a table
 * row, so a deliberate change to the virtual binary (a new probe, a
 * codec feature) re-records them in one paste — and shows up in review.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "codec/decoder.h"
#include "codec/loopflags.h"
#include "codec/params.h"
#include "codec/strategies/strategies.h"
#include "codec/transcode.h"
#include "trace/probe.h"
#include "video/vbench.h"

namespace vtrans {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over the bytes of `value`, little-endian. */
template <typename T>
void
fnv(uint64_t* h, T value)
{
    for (size_t i = 0; i < sizeof(T); ++i) {
        *h ^= static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i));
        *h *= kFnvPrime;
    }
}

uint64_t
bytesDigest(const std::vector<uint8_t>& bytes)
{
    uint64_t h = kFnvOffset;
    for (const uint8_t b : bytes) {
        fnv(&h, b);
    }
    return h;
}

/** Hashes every probe record: kind, then the fields that kind defines. */
class DigestSink : public trace::ProbeSink
{
  public:
    void
    onBatch(const trace::ProbeEvent* events, size_t count) override
    {
        for (size_t i = 0; i < count; ++i) {
            const trace::ProbeEvent& e = events[i];
            fnv(&digest, e.kind);
            switch (e.kind) {
              case trace::ProbeEvent::kBlock:
                fnv(&digest, e.aux);
                break;
              case trace::ProbeEvent::kBlockBranch:
                fnv(&digest, e.aux);
                fnv(&digest, static_cast<uint8_t>(e.flags & 1));
                break;
              default:
                fnv(&digest, e.addr);
                fnv(&digest, e.aux);
                break;
            }
        }
        this->count += count;
    }

    // The bus delivers only batches; the per-event virtuals are unused.
    void onBlock(const trace::CodeSite&) override {}
    void onBranch(const trace::CodeSite&, bool) override {}
    void onLoad(uint64_t, uint32_t) override {}
    void onStore(uint64_t, uint32_t) override {}

    uint64_t digest = kFnvOffset;
    uint64_t count = 0;
};

/** What one case emitted and produced. */
struct Digests
{
    uint64_t events = 0;  ///< Number of probe records.
    uint64_t stream = 0;  ///< FNV-1a of the probe records.
    uint64_t output = 0;  ///< FNV-1a of the case's output bytes.
};

/** Runs `work` (returning its output digest) from a fresh simulated heap
 *  under `kernels`, with a digest sink attached. */
template <typename Work>
Digests
record(codec::KernelModel kernels, Work work)
{
    trace::arena().reset();
    const codec::BuildScope build({}, kernels);
    DigestSink sink;
    trace::setSink(&sink);
    const uint64_t output = work();
    trace::setSink(nullptr);
    return {sink.count, sink.digest, output};
}

/** The clip every case starts from: 7 frames of "cat" (80x48, high
 *  entropy), enough for B-frames, multiple references and a scenecut
 *  check. */
const video::VideoSpec&
clipSpec()
{
    static const video::VideoSpec spec = [] {
        video::VideoSpec s = video::findVideo("cat");
        s.seconds = 0.25;
        return s;
    }();
    return spec;
}

/** The clip's mezzanine stream. Cases fetch it before they attach their
 *  sink, so a first-use build is never part of a recorded stream. */
const std::vector<uint8_t>&
mezzanine()
{
    static const std::vector<uint8_t> stream =
        codec::makeSourceStream(clipSpec());
    return stream;
}

/** Compares against the recorded digests; prints a paste-able row. */
void
expectDigests(const char* name, const Digests& expected,
              const Digests& actual)
{
    const bool same = expected.events == actual.events
                      && expected.stream == actual.stream
                      && expected.output == actual.output;
    EXPECT_TRUE(same) << name << ": actual {" << actual.events << "ull, 0x"
                      << std::hex << actual.stream << "ull, 0x"
                      << actual.output << "ull}";
}

struct TranscodeGolden
{
    const char* preset;
    int crf;
    codec::KernelModel kernels;
    Digests digests;
};

constexpr auto kS = codec::KernelModel::Scalar;
constexpr auto kV = codec::KernelModel::Vector;

// Recorded before the host-side rewrite of the trellis, exp-Golomb
// lengths, pixel access and bit writer.
const TranscodeGolden kTranscodeGolden[] = {
    {"ultrafast", 1, kS,
     {534890ull, 0x85e08dd18108e640ull, 0x92550ae2960bae16ull}},
    {"ultrafast", 26, kS,
     {438128ull, 0x6d26c4667d5a6f7ull, 0x49717acaeeda105bull}},
    {"ultrafast", 51, kS,
     {344662ull, 0x23ee98d7d61b3398ull, 0x7caca016490e3995ull}},
    {"superfast", 1, kS,
     {702547ull, 0xd8fbb9e5deaf9602ull, 0x2f75ba899eec01f7ull}},
    {"superfast", 26, kS,
     {618597ull, 0x5ceaef8510f92f2cull, 0xd81596102f89bc7bull}},
    {"superfast", 51, kS,
     {453963ull, 0x8262ba3e5b7698ddull, 0x531f3fd36bc8768cull}},
    {"veryfast", 1, kS,
     {850136ull, 0x4b8dbee49250fcd1ull, 0x9e3a2d925989a6e2ull}},
    {"veryfast", 26, kS,
     {774223ull, 0xf10b6eec070ece8eull, 0x1f8b427f239298a4ull}},
    {"veryfast", 51, kS,
     {619747ull, 0x3f81107a3821b2eull, 0xef1d99aef1862f8ull}},
    {"faster", 1, kS,
     {1780347ull, 0xd09a46627d43f628ull, 0xeebea14c48986b23ull}},
    {"faster", 26, kS,
     {1126001ull, 0xc6d5b989023ac1cull, 0x4ae51186768eeef7ull}},
    {"faster", 51, kS,
     {735997ull, 0xf00e5380ea1d751bull, 0xa95e76cf65b3dd6ull}},
    {"fast", 1, kS,
     {1893363ull, 0xc0834f9850bb6851ull, 0x117ec6948f59ca14ull}},
    {"fast", 26, kS,
     {1211970ull, 0x138738fc81f3a0f7ull, 0x15bfc7058665302ull}},
    {"fast", 51, kS,
     {843608ull, 0x2ec6f10bfef693c2ull, 0x69698e33acfa881ull}},
    {"medium", 1, kS,
     {2895289ull, 0xd4ae87b42f2ddcadull, 0x96112a1e06d28128ull}},
    {"medium", 26, kS,
     {2196477ull, 0xb5ac064577a6921aull, 0x6979272034d539b6ull}},
    {"medium", 51, kS,
     {1650011ull, 0x954f7f10813e3393ull, 0xa652dd3a5d122ac9ull}},
    {"slow", 1, kS,
     {2924276ull, 0xe9d14de6e225e1d1ull, 0xfc8909ffe1d5e60aull}},
    {"slow", 26, kS,
     {2228482ull, 0x6b48ffa66081ffd8ull, 0x5dd3905ff2310b8ull}},
    {"slow", 51, kS,
     {1721455ull, 0xf3c43a1c02067b8ull, 0x696ce7f606bbd3b9ull}},
    {"slower", 1, kS,
     {5268987ull, 0x3a6595126493f64aull, 0xa691a774aff69139ull}},
    {"slower", 26, kS,
     {4589542ull, 0xbbd547e5b7368cecull, 0x6d1a4b996415646aull}},
    {"slower", 51, kS,
     {3723115ull, 0x7a4a57910fb84462ull, 0xa0f87ff09816c91ull}},
    {"veryslow", 1, kS,
     {5799411ull, 0xddf0a2b0678ecaa0ull, 0x9489ad12665d361ull}},
    {"veryslow", 26, kS,
     {5154242ull, 0x7bc28f59032a668eull, 0x30dbdfda2ef49f60ull}},
    {"veryslow", 51, kS,
     {4181444ull, 0x7ab13e8fbc592ac8ull, 0x4fff53866abfb07bull}},
    {"placebo", 1, kS,
     {23042983ull, 0x3938b2c63c466daull, 0x8f10b49a5ba0be61ull}},
    {"placebo", 26, kS,
     {22324528ull, 0xe8fa1e85ed4b2c36ull, 0x28f7bfae0798d46eull}},
    {"placebo", 51, kS,
     {19501904ull, 0x9179d9d674114387ull, 0x3a527b50127f2dffull}},
    {"ultrafast", 1, kV,
     {533562ull, 0xa97ef6f09a6e3d9eull, 0x92550ae2960bae16ull}},
    {"ultrafast", 26, kV,
     {436784ull, 0xfe3be2e7893a7f67ull, 0x49717acaeeda105bull}},
    {"ultrafast", 51, kV,
     {343462ull, 0x589ff9c95509c204ull, 0x7caca016490e3995ull}},
    {"superfast", 1, kV,
     {700963ull, 0x627b29edd20efccdull, 0x2f75ba899eec01f7ull}},
    {"superfast", 26, kV,
     {616973ull, 0x3236e8eb84db2267ull, 0xd81596102f89bc7bull}},
    {"superfast", 51, kV,
     {452251ull, 0x55733155858247a1ull, 0x531f3fd36bc8768cull}},
    {"veryfast", 1, kV,
     {848184ull, 0xc1ea26e7cd545640ull, 0x9e3a2d925989a6e2ull}},
    {"veryfast", 26, kV,
     {772295ull, 0xb1e382d37bd69aaeull, 0x1f8b427f239298a4ull}},
    {"veryfast", 51, kV,
     {617939ull, 0x328281e6d4cd5fa7ull, 0xef1d99aef1862f8ull}},
    {"faster", 1, kV,
     {1778395ull, 0x654ee7e59585f9a6ull, 0xeebea14c48986b23ull}},
    {"faster", 26, kV,
     {1124057ull, 0xaf8d7cd84f9046ccull, 0x4ae51186768eeef7ull}},
    {"faster", 51, kV,
     {734237ull, 0x2fb3798110e9d78eull, 0xa95e76cf65b3dd6ull}},
    {"fast", 1, kV,
     {1891395ull, 0x83ad4a68aed345f2ull, 0x117ec6948f59ca14ull}},
    {"fast", 26, kV,
     {1209986ull, 0xbbd3406b52fa9b80ull, 0x15bfc7058665302ull}},
    {"fast", 51, kV,
     {841840ull, 0xe15119ef5aec3ec6ull, 0x69698e33acfa881ull}},
    {"medium", 1, kV,
     {2840841ull, 0x6661b4e2f1269fadull, 0x96112a1e06d28128ull}},
    {"medium", 26, kV,
     {2142025ull, 0x563acf0e448ce9a8ull, 0x6979272034d539b6ull}},
    {"medium", 51, kV,
     {1602687ull, 0xd97bc40de536461ull, 0xa652dd3a5d122ac9ull}},
    {"slow", 1, kV,
     {2868404ull, 0x8872347846ba5079ull, 0xfc8909ffe1d5e60aull}},
    {"slow", 26, kV,
     {2172434ull, 0x14f82631a0f92130ull, 0x5dd3905ff2310b8ull}},
    {"slow", 51, kV,
     {1673083ull, 0x46bf190489e2f344ull, 0x696ce7f606bbd3b9ull}},
    {"slower", 1, kV,
     {5162459ull, 0x892d51e00fd7f694ull, 0xa691a774aff69139ull}},
    {"slower", 26, kV,
     {4480202ull, 0x7bbd304a027a258cull, 0x6d1a4b996415646aull}},
    {"slower", 51, kV,
     {3640515ull, 0xe9428cb8865c2816ull, 0xa0f87ff09816c91ull}},
    {"veryslow", 1, kV,
     {5690231ull, 0x31c4e79469198968ull, 0x9489ad12665d361ull}},
    {"veryslow", 26, kV,
     {5040814ull, 0x8e638e5f52f37298ull, 0x30dbdfda2ef49f60ull}},
    {"veryslow", 51, kV,
     {4094936ull, 0x51f79b9f4ee277e2ull, 0x4fff53866abfb07bull}},
    {"placebo", 1, kV,
     {22889783ull, 0x8cbbb747cdef3148ull, 0x8f10b49a5ba0be61ull}},
    {"placebo", 26, kV,
     {22169080ull, 0xd7ab0d3f55cf632ull, 0x28f7bfae0798d46eull}},
    {"placebo", 51, kV,
     {19377488ull, 0x5837fdaf33b9ca51ull, 0x3a527b50127f2dffull}},
};

class GoldenTranscode : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTranscode, EveryCrfAndKernelModel)
{
    const auto& source = mezzanine();
    int checked = 0;
    for (const auto& golden : kTranscodeGolden) {
        if (GetParam() != golden.preset) {
            continue;
        }
        codec::EncoderParams params = codec::presetParams(golden.preset);
        params.crf = golden.crf;
        const Digests actual = record(golden.kernels, [&] {
            return bytesDigest(codec::transcode(source, params).output);
        });
        const std::string name =
            std::string(golden.preset) + " crf " + std::to_string(golden.crf)
            + (golden.kernels == kV ? " vector" : " scalar");
        expectDigests(name.c_str(), golden.digests, actual);
        ++checked;
    }
    // crf {1, 26, 51} x both kernel models.
    EXPECT_EQ(checked, 6);
}

INSTANTIATE_TEST_SUITE_P(
    GoldenDigests, GoldenTranscode, ::testing::ValuesIn(codec::presetNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

TEST(GoldenDigests, MezzanineEncode)
{
    const Digests actual = record(kS, [] {
        return bytesDigest(codec::makeSourceStream(clipSpec()));
    });
    expectDigests("mezzanine",
                  {1502199ull, 0xf87e4417087b6908ull, 0xbaa9db44f894b3f8ull},
                  actual);
}

TEST(GoldenDigests, Decode)
{
    codec::EncoderParams params = codec::presetParams("medium");
    params.crf = 26;
    const std::vector<uint8_t> stream =
        codec::transcode(mezzanine(), params).output;
    const Digests actual = record(kS, [&] {
        const codec::DecodeResult decoded = codec::decode(stream);
        uint64_t h = kFnvOffset;
        for (const auto& frame : decoded.frames) {
            for (const auto plane : {video::Plane::Y, video::Plane::Cb,
                                     video::Plane::Cr}) {
                const uint8_t* p = frame.data(plane);
                const size_t n = static_cast<size_t>(frame.stride(plane))
                                 * frame.planeHeight(plane);
                for (size_t i = 0; i < n; ++i) {
                    fnv(&h, p[i]);
                }
            }
        }
        return h;
    });
    expectDigests("decode",
                  {97320ull, 0xd538176842e324ceull, 0xb57c30e6b81f310full},
                  actual);
}

TEST(GoldenDigests, ChunkSplitAndStitch)
{
    codec::EncoderParams target = codec::presetParams("fast");
    target.crf = 30;
    chunk::ChunkOptions opts;
    opts.chunk_frames = 3;
    const auto& source = mezzanine();
    const Digests actual = record(kS, [&] {
        const chunk::SplitPlan plan = chunk::split(source, target, opts);
        std::vector<const std::vector<uint8_t>*> slices;
        for (const auto& segment : plan.segments) {
            slices.push_back(&segment.source);
        }
        return bytesDigest(chunk::stitch(slices));
    });
    expectDigests("split+stitch",
                  {1775394ull, 0x3c6f0d11337719a7ull, 0xeb4be3b4c4f1ac82ull},
                  actual);
}

} // namespace
} // namespace vtrans
