#ifndef VTRANS_CODEC_DECODER_H_
#define VTRANS_CODEC_DECODER_H_

/**
 * @file
 * The VX1 decoder: parses bitstreams produced by Encoder and reconstructs
 * frames bit-identically to the encoder's reference reconstruction (the
 * deterministic first stage of transcoding, paper §II-A).
 */

#include <cstdint>
#include <vector>

#include "video/frame.h"

namespace vtrans::codec {

/** Output of a decode: frames restored to display order plus metadata. */
struct DecodeResult
{
    int width = 0;
    int height = 0;
    int fps = 0;
    std::vector<video::Frame> frames;  ///< Display order.
};

/**
 * Decodes a complete VX1 stream.
 * Fatal error on malformed input: a magic mismatch, a truncated stream
 * or an element out of range (the checks of codec/syntax.h).
 */
DecodeResult decode(const std::vector<uint8_t>& bytes);

} // namespace vtrans::codec

#endif // VTRANS_CODEC_DECODER_H_
