#ifndef VTRANS_CODEC_SYNTAX_H_
#define VTRANS_CODEC_SYNTAX_H_

/**
 * @file
 * The VX1 bitstream syntax, written once. Each syntax structure is a
 * function template over an I/O policy (the read/write syntax-template
 * design of FFmpeg's CBS): `SyntaxWriter` emits the fields of a struct
 * (the encoder), `SyntaxReader` fills them from a stream (the decoder and
 * `chunk::iFrameDisplays`), and `SyntaxRemux` reads each element and
 * writes it straight back out (`chunk::stitch`, which rebases the display
 * index and nothing else). Every element a reader takes from a stream is
 * range-checked here, so malformed input fails in one place whichever
 * module parses it.
 *
 * syntax::sequenceHeader:
 *   u(32) magic "VX10" | ue(mb_w) ue(mb_h) ue(fps) ue(frame_count)
 *   ue(deblock_flag) se(alpha_offset) se(beta_offset)
 *
 * syntax::frameHeader (one per coded frame, in coded order):
 *   ue(frame_type: 0=I 1=P 2=B) ue(display_index) ue(qp_base)
 *   ue(num_ref_active)
 *
 * syntax::macroblock (raster order):
 *   I frames:  ue(intra_mb_type: 0=Intra16 1=Intra4)
 *   P frames:  ue(mb_mode: 0=Skip 1=Inter16 2=Inter8x8 3=Intra16 4=Intra4)
 *   B frames:  same mode alphabet; Inter16 and Inter8x8 are followed by
 *              ue(b_dir: 0=fwd 1=bwd 2=bi). The encoder codes Inter8x8
 *              in P frames only; in a B frame its b_dir is carried as
 *              coded and its partitions predict forward.
 *   Inter16 fwd: ue(ref_idx) se(mvd_x) se(mvd_y)
 *   Inter16 bwd: se(mvd_x) se(mvd_y)          (single backward reference)
 *   Inter16 bi : ue(ref_idx) se*2 (fwd) then se*2 (bwd)
 *   Inter8x8   : 4 x [ue(ref_idx) se(mvd_x) se(mvd_y)]
 *   Intra16    : ue(intra16_mode 0..3)
 *   Intra4     : 16 x ue(intra4_mode 0..4)
 *   Non-skip MBs then carry: se(qp_delta vs frame qp_base), ue(cbp 0..63)
 *   For each set cbp bit (luma groups 0..3, then Cb=4, Cr=5), 4 blocks:
 *     ue(nnz 0..16); nnz x [ue(run_before) se(level)] in zigzag order.
 *
 * A ref_idx is below num_ref_active, and a Skip or inter MB of a P or B
 * frame needs num_ref_active >= 1. MVDs are against the median
 * predictors the caller passes (codec::predictMv; zero for a walk that
 * does not reconstruct, which then carries the MVDs themselves).
 *
 * Skip semantics: P-Skip reconstructs from the median MV predictor on
 * ref 0; B-Skip is bi-directional "direct" prediction from both median
 * predictors with no residual.
 */

#include <algorithm>
#include <cstdint>

#include "codec/bitstream.h"
#include "codec/intra.h"
#include "codec/mv.h"
#include "codec/params.h"
#include "codec/tables.h"
#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

/** Stream magic number ("VX10"). */
constexpr uint32_t kMagic = 0x56583130;

/** Macroblock coding modes (P/B alphabet). */
enum class MbMode : uint8_t {
    Skip = 0,
    Inter16 = 1,
    Inter8x8 = 2,
    Intra16 = 3,
    Intra4 = 4,
};

/** Inter prediction direction in B frames. */
enum class BDir : uint8_t { Fwd = 0, Bwd = 1, Bi = 2 };

/** Luma 4x4 block index (0..15) -> 8x8 cbp group (0..3). */
inline int
lumaCbpGroup(int block4)
{
    const int bx = block4 & 3;
    const int by = block4 >> 2;
    return (by >> 1) * 2 + (bx >> 1);
}

/** Raster order of 4x4 luma blocks within an 8x8 cbp group. */
inline int
lumaBlockInGroup(int group, int idx)
{
    const int gx = (group & 1) * 2;
    const int gy = (group >> 1) * 2;
    const int bx = gx + (idx & 1);
    const int by = gy + (idx >> 1);
    return by * 4 + bx;
}

/** The sequence header. */
struct SequenceHeader
{
    int mb_w = 0;
    int mb_h = 0;
    int fps = 0;
    int frame_count = 0;
    uint32_t deblock_flag = 0;
    int alpha_offset = 0;
    int beta_offset = 0;

    bool operator==(const SequenceHeader&) const = default;
};

/** The header of one coded frame. */
struct FrameHeader
{
    FrameType type = FrameType::I;
    int display = 0;
    int qp_base = 0;
    int num_ref_active = 0;
};

/** Quantized residual of one macroblock: 16 luma + 2x4 chroma blocks. */
struct Residual
{
    int16_t luma[16][16] = {};
    int16_t chroma[2][4][16] = {};
    int cbp = 0;
};

/** One macroblock as coded: MVs and qp are absolute (the syntax codes
 *  them as differences). */
struct Macroblock
{
    MbMode mode = MbMode::Intra16;
    BDir dir = BDir::Fwd;
    Mv mv0, mv1;
    int ref0 = 0;
    Mv mv8[4];
    int ref8[4] = {0, 0, 0, 0};
    Intra16Mode i16 = Intra16Mode::DC;
    Intra4Mode i4[16] = {};
    int qp = 26;
    Residual res;
};

// ---- I/O policies -------------------------------------------------------
//
// Each policy takes every element by reference under its name in the
// grammar above (which a test's policy can observe): bits(name, v, n),
// ue(name, v), se(name, v), displayIndex(v). kReads is true when element
// values come from a stream (so values the writer derives, such as nnz
// and runs, are not computed). The hooks place each side's probe events:
// beginFrame() before a frame header, beginMb(mb) before a macroblock,
// beginBlock(levels) before a residual block's nnz and coeff(level) after
// each (run, level) pair.

/** Probe hooks that emit nothing. */
struct NoSyntaxProbes
{
    void beginFrame() {}
    void beginMb(const Macroblock&) {}
    void beginBlock(int16_t*) {}
    void coeff(int32_t) {}
};

/** Writes the fields of the syntax structs (the encoder). */
class SyntaxWriter : public NoSyntaxProbes
{
  public:
    static constexpr bool kReads = false;

    explicit SyntaxWriter(BitWriter& bw) : bw_(bw) {}

    void bits(const char*, uint32_t& v, int n) { bw_.putBits(v, n); }
    void ue(const char*, uint32_t& v) { bw_.putUe(v); }
    void se(const char*, int32_t& v) { bw_.putSe(v); }
    void displayIndex(uint32_t& v) { bw_.putUe(v); }

    void
    beginMb(const Macroblock& mb)
    {
        if (mb.mode != MbMode::Skip) {
            VT_SITE(site, EncWritembheader);
            trace::block(site);
        }
    }

    void
    beginBlock(const int16_t* levels)
    {
        if (trace::active()) {
            // The per-coefficient significance test in scan order: the
            // branchy, data-dependent heart of entropy coding.
            VT_SITE(site, EntropySig);
            for (int i = 0; i < 16; ++i) {
                trace::branch(site, levels[kZigzag4x4[i]] != 0);
            }
        }
    }

  private:
    BitWriter& bw_;
};

/** Fills the syntax structs from a stream (the decoder). */
class SyntaxReader : public NoSyntaxProbes
{
  public:
    static constexpr bool kReads = true;

    explicit SyntaxReader(BitReader& br) : br_(br) {}

    void bits(const char*, uint32_t& v, int n) { v = br_.getBits(n); }
    void ue(const char*, uint32_t& v) { v = br_.getUe(); }
    void se(const char*, int32_t& v) { v = br_.getSe(); }
    void displayIndex(uint32_t& v) { v = br_.getUe(); }

    void
    beginFrame()
    {
        VT_SITE(site, DecFrameheader);
        trace::block(site);
    }

    void
    beginBlock(int16_t* levels)
    {
        VT_SITE(site, DecParseblock);
        trace::block(site);
        std::fill(levels, levels + 16, static_cast<int16_t>(0));
    }

    void
    coeff(int32_t level)
    {
        VT_SITE(site, DecCoeff);
        trace::branch(site, level != 0);
    }

  private:
    BitReader& br_;
};

/**
 * Copies each element from a reader to a writer as it is read; exp-Golomb
 * is canonical, so the copy is bit-exact except for the display index,
 * which is rebased by `display_offset`.
 */
class SyntaxRemux : public NoSyntaxProbes
{
  public:
    static constexpr bool kReads = true;

    SyntaxRemux(BitReader& br, BitWriter& bw, uint32_t display_offset)
        : br_(br), bw_(bw), display_offset_(display_offset)
    {
    }

    void ue(const char*, uint32_t& v) { bw_.putUe(v = br_.getUe()); }
    void se(const char*, int32_t& v) { bw_.putSe(v = br_.getSe()); }

    void
    displayIndex(uint32_t& v)
    {
        v = br_.getUe();
        bw_.putUe(v + display_offset_);
    }

  private:
    BitReader& br_;
    BitWriter& bw_;
    uint32_t display_offset_;
};

// ---- The syntax ---------------------------------------------------------

namespace syntax {

/** ue(v) into a field of integral or enum type whose values lie in
 *  [0, limit). */
template <class Io, class T>
void
ue(Io& io, const char* name, T& field, uint64_t limit = uint64_t{1} << 32)
{
    uint32_t v = static_cast<uint32_t>(field);
    io.ue(name, v);
    VT_ASSERT(v < limit, "corrupt VX1 ", name, " ", v, " (limit ", limit,
              ")");
    field = static_cast<T>(v);
}

/** se(v) of `value - pred` (summed in 64 bits: a read delta is any
 *  int32). */
template <class Io, class T>
void
se(Io& io, const char* name, T& value, int pred = 0)
{
    int32_t delta = Io::kReads ? 0 : value - pred;
    io.se(name, delta);
    value = static_cast<T>(static_cast<int64_t>(pred) + delta);
}

template <class Io>
void
mvd(Io& io, Mv& mv, const Mv& pred)
{
    se(io, "mvd_x", mv.x, pred.x);
    se(io, "mvd_y", mv.y, pred.y);
}

template <class Io>
void
sequenceHeader(Io& io, SequenceHeader& h)
{
    uint32_t magic = kMagic;
    io.bits("magic", magic, 32);
    VT_ASSERT(magic == kMagic, "not a VX1 stream (bad magic)");
    ue(io, "mb_w", h.mb_w);
    ue(io, "mb_h", h.mb_h);
    ue(io, "fps", h.fps);
    ue(io, "frame_count", h.frame_count);
    ue(io, "deblock_flag", h.deblock_flag);
    se(io, "alpha_offset", h.alpha_offset);
    se(io, "beta_offset", h.beta_offset);
    VT_ASSERT(h.mb_w > 0 && h.mb_h > 0, "corrupt stream geometry");
}

template <class Io>
void
frameHeader(Io& io, FrameHeader& fh)
{
    io.beginFrame();
    ue(io, "frame_type", fh.type, 3);
    uint32_t display = static_cast<uint32_t>(fh.display);
    io.displayIndex(display);
    fh.display = static_cast<int>(display);
    ue(io, "qp_base", fh.qp_base);
    ue(io, "num_ref_active", fh.num_ref_active);
}

/** ue(nnz), then (run_before, level) per non-zero level in zigzag order. */
template <class Io>
void
residualBlock(Io& io, int16_t levels[16])
{
    io.beginBlock(levels);
    uint32_t nnz = 0;
    if constexpr (!Io::kReads) {
        for (int i = 0; i < 16; ++i) {
            nnz += levels[i] != 0 ? 1 : 0;
        }
    }
    ue(io, "nnz", nnz, 17);
    int pos = -1;
    for (uint32_t i = 0; i < nnz; ++i) {
        uint32_t run = 0;
        if constexpr (!Io::kReads) {
            while (levels[kZigzag4x4[pos + 1 + run]] == 0) {
                ++run;
            }
        }
        ue(io, "run_before", run, static_cast<uint32_t>(15 - pos));
        pos += static_cast<int>(run) + 1;
        int32_t level = Io::kReads ? 0 : levels[kZigzag4x4[pos]];
        io.se("level", level);
        io.coeff(level);
        levels[kZigzag4x4[pos]] = static_cast<int16_t>(level);
    }
}

template <class Io>
void
residual(Io& io, Residual& res)
{
    for (int g = 0; g < 4; ++g) {
        if ((res.cbp >> g) & 1) {
            for (int i = 0; i < 4; ++i) {
                residualBlock(io, res.luma[lumaBlockInGroup(g, i)]);
            }
        }
    }
    for (int c = 0; c < 2; ++c) {
        if ((res.cbp >> (4 + c)) & 1) {
            for (int b = 0; b < 4; ++b) {
                residualBlock(io, res.chroma[c][b]);
            }
        }
    }
}

/** One macroblock of a frame with header `fh`; `pred0`/`pred1` are the
 *  median MV predictors of lists 0 and 1. */
template <class Io>
void
macroblock(Io& io, const FrameHeader& fh, Macroblock& mb, const Mv& pred0,
           const Mv& pred1)
{
    io.beginMb(mb);
    if (fh.type == FrameType::I) {
        uint32_t intra4 = mb.mode == MbMode::Intra4 ? 1 : 0;
        ue(io, "intra_mb_type", intra4, 2);
        mb.mode = intra4 != 0 ? MbMode::Intra4 : MbMode::Intra16;
    } else {
        ue(io, "mb_mode", mb.mode, 5);
    }
    const bool inter = mb.mode == MbMode::Inter16
                       || mb.mode == MbMode::Inter8x8;
    VT_ASSERT(fh.num_ref_active > 0 || !(inter || mb.mode == MbMode::Skip),
              "corrupt VX1 mb_mode ", static_cast<int>(mb.mode),
              " with num_ref_active 0");
    if (mb.mode == MbMode::Skip) {
        return;
    }
    if (inter && fh.type == FrameType::B) {
        ue(io, "b_dir", mb.dir, 3);
    }
    const uint32_t refs = static_cast<uint32_t>(fh.num_ref_active);
    switch (mb.mode) {
      case MbMode::Inter16:
        if (fh.type != FrameType::B || mb.dir != BDir::Bwd) {
            ue(io, "ref_idx", mb.ref0, refs);
            mvd(io, mb.mv0, pred0);
        }
        if (fh.type == FrameType::B && mb.dir != BDir::Fwd) {
            mvd(io, mb.mv1, pred1);
        }
        break;
      case MbMode::Inter8x8:
        for (int p = 0; p < 4; ++p) {
            ue(io, "ref_idx", mb.ref8[p], refs);
            mvd(io, mb.mv8[p], pred0);
        }
        break;
      case MbMode::Intra16:
        ue(io, "intra16_mode", mb.i16, kIntra16Modes);
        break;
      case MbMode::Intra4:
        for (int b = 0; b < 16; ++b) {
            ue(io, "intra4_mode", mb.i4[b], kIntra4Modes);
        }
        break;
      case MbMode::Skip:
        break;
    }
    se(io, "qp_delta", mb.qp, fh.qp_base);
    ue(io, "cbp", mb.res.cbp, 64);
    residual(io, mb.res);
}

/** A frame header and the frame's `mb_count` macroblocks, walked with
 *  zero MV predictors (no reconstruction). */
template <class Io>
FrameHeader
frame(Io& io, int mb_count)
{
    FrameHeader fh;
    frameHeader(io, fh);
    Macroblock mb;
    for (int i = 0; i < mb_count; ++i) {
        macroblock(io, fh, mb, {}, {});
    }
    return fh;
}

} // namespace syntax

} // namespace vtrans::codec

#endif // VTRANS_CODEC_SYNTAX_H_
