#include "chunk/chunk.h"

#include <algorithm>

#include "codec/syntax.h"
#include "common/status.h"

namespace vtrans::chunk {

using codec::BitReader;
using codec::BitWriter;
using codec::SequenceHeader;

std::vector<uint8_t>
stitch(const std::vector<const std::vector<uint8_t>*>& streams)
{
    VT_ASSERT(!streams.empty(), "nothing to stitch");

    // Pass 1: headers must agree on everything but the frame count.
    std::vector<SequenceHeader> headers;
    int total_frames = 0;
    for (const auto* stream : streams) {
        BitReader br(*stream);
        codec::SyntaxReader in(br);
        SequenceHeader& h = headers.emplace_back();
        codec::syntax::sequenceHeader(in, h);
        SequenceHeader same = h;
        same.frame_count = headers.front().frame_count;
        VT_ASSERT(same == headers.front(),
                  "stitch inputs disagree on stream parameters");
        total_frames += h.frame_count;
    }

    // Pass 2: one output header, then every frame of every input in
    // order, displays rebased by the frames of the preceding inputs.
    SequenceHeader out = headers.front();
    out.frame_count = total_frames;
    BitWriter bw;
    codec::SyntaxWriter writer(bw);
    codec::syntax::sequenceHeader(writer, out);
    int display_offset = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
        BitReader br(*streams[s]);
        codec::SyntaxReader in(br);
        SequenceHeader validated; // Read past; checked in pass 1.
        codec::syntax::sequenceHeader(in, validated);
        codec::SyntaxRemux remux(br, bw, display_offset);
        for (int f = 0; f < headers[s].frame_count; ++f) {
            codec::syntax::frame(remux, out.mb_w * out.mb_h);
        }
        display_offset += headers[s].frame_count;
    }
    return bw.finish();
}

std::vector<int>
iFrameDisplays(const std::vector<uint8_t>& stream)
{
    BitReader br(stream);
    codec::SyntaxReader in(br);
    SequenceHeader h;
    codec::syntax::sequenceHeader(in, h);
    std::vector<int> displays;
    for (int f = 0; f < h.frame_count; ++f) {
        const codec::FrameHeader fh =
            codec::syntax::frame(in, h.mb_w * h.mb_h);
        if (fh.type == codec::FrameType::I) {
            displays.push_back(fh.display);
        }
    }
    std::sort(displays.begin(), displays.end());
    return displays;
}

uint64_t
streamFingerprint(const std::vector<uint8_t>& stream)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t byte : stream) {
        h ^= byte;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
stitchSeconds(size_t stream_bytes)
{
    // Byte-bandwidth model of the remux: a small fixed header cost plus
    // ~250 MB/s of syntax copy. Pure function of the size, so stitch
    // service times are as deterministic as everything else on the farm.
    return 2.0e-5 + static_cast<double>(stream_bytes) * 4.0e-9;
}

} // namespace vtrans::chunk
