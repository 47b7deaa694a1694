#ifndef VTRANS_CHUNK_CHUNK_H_
#define VTRANS_CHUNK_CHUNK_H_

/**
 * @file
 * GOP-chunked transcoding: split a mezzanine source into independently
 * encodable segments at the lookahead's I-frame boundaries, and stitch
 * per-chunk output bitstreams back into one stream — the unit-of-work
 * transformation that lets the farm dispatch one upload as a dependent
 * job graph (split -> N chunk encodes -> stitch) instead of pinning one
 * server with the whole video (the segment-level dispatch production VOD
 * pipelines use; see Li et al. in PAPERS.md).
 *
 * ## Determinism
 *
 * The atom of chunked encoding is the *segment*: the frame run between
 * two consecutive planned I frames. Every segment is always encoded as an
 * independent closed-GOP unit, whatever chunk it lands in; a chunk is
 * just a contiguous group of segments processed by one job. Because
 * grouping never changes what is encoded — only which job encodes it —
 * the stitched stream is bit-identical for any chunk count and any
 * worker count. The residual gap to the unchunked open-GOP encode (which
 * may reference across the boundaries chunking seals) is the *boundary
 * cost*, reported as delta-PSNR / delta-bitrate, never hidden.
 *
 * The stitcher is a pure bitstream-level remux: it walks the VX1 frame
 * syntax element by element through the syntax template the encoder and
 * decoder share (codec/syntax.h, instantiated with `SyntaxRemux`) and
 * re-emits it through canonical exp-Golomb, rebasing only each frame's
 * display index. No pixel is touched, so stitching cannot perturb
 * reconstruction; and the remux is associative — stitch(stitch(a,b), c)
 * == stitch(a,b,c) — which is what makes the output independent of
 * segment grouping.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "codec/params.h"

namespace vtrans::chunk {

/** How to chunk one transcode request. */
struct ChunkOptions
{
    /**
     * Boundary spacing in frames: overrides the target keyint when
     * planning split points (smaller = more segments). 0 = use the
     * target's own keyint.
     */
    int chunk_frames = 0;

    /**
     * Group segments into at most this many chunk jobs (contiguous,
     * balanced). 0 = one chunk per segment.
     */
    int max_chunks = 0;

    /** True if any chunking was requested; false = whole-video path. */
    bool enabled() const { return chunk_frames > 0 || max_chunks > 0; }
};

/** One independently encodable piece of the source. */
struct Segment
{
    int first_frame = 0;          ///< Display index in the full clip.
    int frame_count = 0;
    std::vector<uint8_t> source;  ///< Self-contained mezzanine-grade slice.
};

/** The full split of one source stream. */
struct SplitPlan
{
    int width = 0;
    int height = 0;
    int fps = 0;
    int total_frames = 0;
    std::vector<Segment> segments;  ///< Contiguous, covering the clip.
    std::vector<int> boundaries;    ///< Segment-start display indices.
};

/**
 * Splits a mezzanine stream at GOP/scenecut boundaries: decodes it, runs
 * the lookahead frame-type plan (`codec::planFrameTypes`) with the
 * chunking keyint, and re-encodes each segment as a self-contained
 * mezzanine-grade slice (every chunk therefore starts at an IDR).
 * `target` supplies the planning parameters (scenecut, bframes, b_adapt);
 * `opts.chunk_frames` overrides its keyint when non-zero.
 */
SplitPlan split(const std::vector<uint8_t>& mezzanine,
                const codec::EncoderParams& target,
                const ChunkOptions& opts);

/**
 * Groups `segments` into at most `max_chunks` contiguous, evenly sized
 * (first_segment, segment_count) runs; max_chunks <= 0 or >= segments
 * yields one chunk per segment.
 */
std::vector<std::pair<int, int>> groupSegments(size_t segments,
                                               int max_chunks);

/**
 * Stitches VX1 streams into one by syntax-level remux: sequence headers
 * must agree on geometry/fps/deblock; frame payloads are copied element
 * by element with display indices rebased past the preceding streams.
 * Fatal on malformed or mismatched inputs.
 */
std::vector<uint8_t> stitch(
    const std::vector<const std::vector<uint8_t>*>& streams);

/**
 * Display indices of the I frames of a stream, by syntax walk (the
 * syntax template with `SyntaxReader`, no pixel reconstruction) — the
 * IDR set the boundary-determinism checks compare. Fatal on malformed
 * input.
 */
std::vector<int> iFrameDisplays(const std::vector<uint8_t>& stream);

/** FNV-1a content fingerprint over the raw stream bytes. */
uint64_t streamFingerprint(const std::vector<uint8_t>& stream);

/**
 * Deterministic simulated service time of a stitch, as a pure function
 * of the stitched byte count (the remux is byte-bandwidth bound). Also
 * used at dispatch time as the prediction, fed the mezzanine byte count
 * as the pre-run size estimate.
 */
double stitchSeconds(size_t stream_bytes);

} // namespace vtrans::chunk

#endif // VTRANS_CHUNK_CHUNK_H_
