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
 *   - for every vbench video and `bbb` at 0.1 s and 0.3 s: each plane of
 *     the frames `video::generateVideo` renders, and the mezzanine encode
 *     of those frames (its bytes also with no sink attached);
 *   - `codec::decode` of a transcoded stream (events + decoded pixels);
 *   - `chunk::split` of the mezzanine plus `chunk::stitch` of its slices.
 *
 * On a mismatch the test prints the case's actual digests as a table
 * row, so a deliberate change to the virtual binary (a new probe, a
 * codec feature) re-records them in one paste — and shows up in review.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "codec/decoder.h"
#include "codec/loopflags.h"
#include "codec/params.h"
#include "codec/strategies/strategies.h"
#include "codec/transcode.h"
#include "trace/probe.h"
#include "video/generate.h"
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

/** One corpus clip at one length: FNV-1a of each plane (Y, Cb, Cr) over
 *  every frame the generator renders, in order, and the digests of the
 *  clip's mezzanine encode. */
struct ClipGolden
{
    const char* video;
    double seconds;
    uint64_t planes[3];
    Digests mezzanine;
};

// Recorded before the separable renderer and the implied-back-pointer
// trellis.
const ClipGolden kClipGolden[] = {
    {"desktop", 0.1,
     {0x449c22a0e0f00d41ull, 0xc14f632d27992f3dull, 0x521e4531069cd91dull},
     {684891ull, 0x22c3d80a13c466d7ull, 0x732729bc91bb01aaull}},
    {"presentation", 0.1,
     {0xc9daa6d72b29e25full, 0xf81b313e0f57d25dull, 0x3629a7397a38b582ull},
     {1396074ull, 0xdd906a6ca4dbcbe9ull, 0x2bf03a636fba5112ull}},
    {"bike", 0.1,
     {0xc461f6ff9354012full, 0x48685aa2fb1bd532ull, 0xead37d1419469f8dull},
     {795039ull, 0xe87677c039b58135ull, 0x97fbb05475023715ull}},
    {"funny", 0.1,
     {0x6c4fcad49a830b1cull, 0x72388816671daf89ull, 0xf4aca818069354c8ull},
     {2011002ull, 0xccbe56467f460381ull, 0xca5eacaf136d53bfull}},
    {"cricket", 0.1,
     {0x8d667b30b3165737ull, 0xd60df6582d119bdull, 0xe59b55150188613ull},
     {1010994ull, 0xfa2df11012cf8264ull, 0x6e041c049aab6343ull}},
    {"house", 0.1,
     {0x6c8d945a2d10c093ull, 0xba6b3d31c419f08cull, 0x2596b3475597f390ull},
     {2140834ull, 0x3d05f99efcb3a0dcull, 0x4695aa4604b3f0e6ull}},
    {"game1", 0.1,
     {0xe881ea4b18e1c155ull, 0xe716f2c81ea21ae2ull, 0x2e86f779906f4b98ull},
     {4536195ull, 0x19917e2c1bc12e0aull, 0xa507f563eb4e9d70ull}},
    {"game2", 0.1,
     {0x56ff39821fdebf2bull, 0x8ea2b556933b0af6ull, 0x72d0e0f754c8af20ull},
     {1040884ull, 0xd923475196a1a8f0ull, 0x429c8333abac2b09ull}},
    {"girl", 0.1,
     {0xa69cebf963767b82ull, 0x184fb3e340e334b9ull, 0x19b8a811241b7aa8ull},
     {1104622ull, 0x149faf2ee93a7e96ull, 0x38fa319e8e9446eull}},
    {"chicken", 0.1,
     {0x97a61b2b60bcc793ull, 0xc9cb2b73f718dbd2ull, 0x69496971ea71547ull},
     {8355152ull, 0xe22c5400dbf96e43ull, 0xb67a2af21a815e82ull}},
    {"game3", 0.1,
     {0x1ca52c59107100dfull, 0xb2efdae32e0a1cb1ull, 0xebc80196e6349d7eull},
     {2381736ull, 0x6ccbb03973dd927full, 0x3f1b00ec9d4294eeull}},
    {"cat", 0.1,
     {0x3ca972c0d7ab7265ull, 0xcdf02a2bed69863bull, 0x36045c4f81acba37ull},
     {618351ull, 0xa9478f651f5c6420ull, 0x79fb2974ad7f3194ull}},
    {"holi", 0.1,
     {0x90b88a12ead8ea5full, 0xee8fd3694d86f4b6ull, 0x9466dde78f928513ull},
     {666510ull, 0xd674dc8fe7e8802aull, 0x2bb2f8f61f66cdc5ull}},
    {"landscape", 0.1,
     {0x97dcf7aee13b8a2eull, 0x35afeb941f715b65ull, 0xcdc6bf72d25422d9ull},
     {2372349ull, 0x2e5cbbb57020025eull, 0xf059c339f1ec17b9ull}},
    {"hall", 0.1,
     {0xc219c33bae442a4cull, 0x586c303bd15f7f7ull, 0xb0d12f697464cebfull},
     {2411152ull, 0xa5c3d97dc21b55aaull, 0x60ff53ff6ddb4a41ull}},
    {"bbb", 0.1,
     {0xaec0ae7f9dca23bfull, 0xccfa83a259960b96ull, 0xb87c20ca94c513b6ull},
     {2050449ull, 0xc7754c27f77b8a54ull, 0xdde6abff31003d4ull}},
    {"desktop", 0.3,
     {0xd8f886ec8fc74f2eull, 0xb1420fcc3a6860f1ull, 0x12643ac385e32909ull},
     {2171541ull, 0xd3406debafaec83cull, 0x3598e75be25d63c2ull}},
    {"presentation", 0.3,
     {0x9f61c3163a4ad13bull, 0x6ff893260611a855ull, 0xf988f43bda71df25ull},
     {3899829ull, 0x1b404d69748c036bull, 0x204057e1e1369909ull}},
    {"bike", 0.3,
     {0x68d7341f19033db7ull, 0x2b8ef18b0168d614ull, 0xf7a453369e56dc0eull},
     {2467954ull, 0xfe90c4be31dd52d0ull, 0xfb531dc8d4221b30ull}},
    {"funny", 0.3,
     {0x2b38dd5ed4df9f26ull, 0x1ccf9b105cbec792ull, 0xa8f0ca25454be72bull},
     {6191659ull, 0x9deebac9636a34bbull, 0x220c8ef037f45007ull}},
    {"cricket", 0.3,
     {0x193165bda1ce1c92ull, 0x5f7a6cfa95e7e853ull, 0x3cdf2106c91d706dull},
     {3068904ull, 0xf6109138526c2a3bull, 0x80041234e0d6985dull}},
    {"house", 0.3,
     {0xd7acd036afb46fdaull, 0xd577b866184b8abfull, 0xcefdc7527c77995cull},
     {6558839ull, 0x9ef4415ae751c4e6ull, 0xc4874bea994911f7ull}},
    {"game1", 0.3,
     {0x25224c5c60279c67ull, 0x76e7f22e0b1b3917ull, 0x564b687a28b3f095ull},
     {13824202ull, 0xaa68a28f0a013974ull, 0xc5780f01e4658d8aull}},
    {"game2", 0.3,
     {0xd8df815d435440ddull, 0x50d731e733d1387dull, 0x7ac08f84de1f1154ull},
     {3293709ull, 0x5b530cbe58b69fdull, 0x451dc9dc8758ceaull}},
    {"girl", 0.3,
     {0x8739f0c512c01cf7ull, 0x548a042f9d4c6bb1ull, 0xed60841d716ff93full},
     {3493401ull, 0x2425f3e2f31117bcull, 0x443877a72e744011ull}},
    {"chicken", 0.3,
     {0x23f2e9df127fd13bull, 0xbbcefd0f1bfd7001ull, 0x5324da1716f4dda9ull},
     {26390444ull, 0xd170e72e044c8d6eull, 0xb576c93cbe82a7e0ull}},
    {"game3", 0.3,
     {0x13bc4e912f4b63a2ull, 0xd3b0619a473740b2ull, 0x15f9bb1675a1d3e1ull},
     {7316027ull, 0xd913fe8d080defa1ull, 0x5b0ff9ddf518f45cull}},
    {"cat", 0.3,
     {0xae2d3782fae37b7bull, 0x4524a77bd63f6b9ull, 0x50afb07570f4ffa9ull},
     {1994718ull, 0xbf00141ddce7f46cull, 0xe7ccadf95e03a325ull}},
    {"holi", 0.3,
     {0x82d4e5bddf108fe5ull, 0xac06bbde2683630ull, 0x679a62a6e194bb4aull},
     {1860622ull, 0xb1189f4825afcbaull, 0x5e805fe21e77ae77ull}},
    {"landscape", 0.3,
     {0xc27ee29c6e3b1942ull, 0xbf46888d18c63e9eull, 0x18bf9b20ff8eaf78ull},
     {7613533ull, 0x41a661613b93e34eull, 0x741a062d8162d6dcull}},
    {"hall", 0.3,
     {0x65719454f6c148fbull, 0x9272a4da4a66bc67ull, 0xddd260fe83deeebeull},
     {7528227ull, 0x745b04db0e9ef15ull, 0x4c75af138cd66610ull}},
    {"bbb", 0.3,
     {0x39a0597859be660eull, 0xd66fafb48f5fbda8ull, 0x7d6606bd91d1c04aull},
     {6285445ull, 0x2731e8396ad42cdeull, 0x51b59d3d4ca42ebcull}},
};

/** Every vbench video plus `bbb`, in corpus order, at `seconds`. */
std::vector<video::VideoSpec>
corpusClips(double seconds)
{
    std::vector<video::VideoSpec> clips = video::vbenchCorpus();
    clips.push_back(video::bigBuckBunny());
    for (auto& spec : clips) {
        spec.seconds = seconds;
    }
    return clips;
}

/** The golden row of `spec`, or null when the table lacks it. */
const ClipGolden*
findClipGolden(const video::VideoSpec& spec)
{
    for (const auto& golden : kClipGolden) {
        if (spec.name == golden.video && spec.seconds == golden.seconds) {
            return &golden;
        }
    }
    return nullptr;
}

/** Prints a clip's table row, so a deliberate change re-records it in
 *  one paste. */
std::string
clipRow(const video::VideoSpec& spec, const uint64_t planes[3],
        const Digests& mezzanine)
{
    std::ostringstream row;
    row << "{\"" << spec.name << "\", " << spec.seconds << ", {0x"
        << std::hex << planes[0] << "ull, 0x" << planes[1] << "ull, 0x"
        << planes[2] << "ull}, {" << std::dec << mezzanine.events
        << "ull, 0x" << std::hex << mezzanine.stream << "ull, 0x"
        << mezzanine.output << "ull}},";
    return row.str();
}

TEST(GoldenDigests, GeneratedFramesEveryVideo)
{
    int checked = 0;
    for (const double seconds : {0.1, 0.3}) {
        for (const auto& spec : corpusClips(seconds)) {
            uint64_t planes[3] = {kFnvOffset, kFnvOffset, kFnvOffset};
            for (const auto& frame : video::generateVideo(spec)) {
                int i = 0;
                for (const auto plane : {video::Plane::Y, video::Plane::Cb,
                                         video::Plane::Cr}) {
                    const uint8_t* p = frame.data(plane);
                    const size_t n = static_cast<size_t>(frame.stride(plane))
                                     * frame.planeHeight(plane);
                    for (size_t k = 0; k < n; ++k) {
                        fnv(&planes[i], p[k]);
                    }
                    ++i;
                }
            }
            const ClipGolden* golden = findClipGolden(spec);
            const bool same = golden != nullptr
                              && std::equal(planes, planes + 3,
                                            golden->planes);
            EXPECT_TRUE(same)
                << "planes: "
                << clipRow(spec, planes,
                           golden != nullptr ? golden->mezzanine
                                             : Digests{});
            ++checked;
        }
    }
    EXPECT_EQ(checked, static_cast<int>(std::size(kClipGolden)));
}

TEST(GoldenDigests, MezzanineEveryVideo)
{
    int checked = 0;
    for (const double seconds : {0.1, 0.3}) {
        for (const auto& spec : corpusClips(seconds)) {
            std::ostringstream name;
            name << "mezzanine " << spec.name << " " << seconds << " s";
            const Digests actual = record(kS, [&] {
                return bytesDigest(codec::makeSourceStream(spec));
            });
            // Set-up encodes run with no sink attached, and the codec
            // skips its probe-only work then: the bytes must not move.
            EXPECT_EQ(bytesDigest(codec::makeSourceStream(spec)),
                      actual.output)
                << name.str() << " without a sink";
            const ClipGolden* golden = findClipGolden(spec);
            const uint64_t none[3] = {};
            if (golden == nullptr) {
                ADD_FAILURE() << name.str() << ": no row; "
                              << clipRow(spec, none, actual);
            } else {
                expectDigests(name.str().c_str(), golden->mezzanine, actual);
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, static_cast<int>(std::size(kClipGolden)));
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
