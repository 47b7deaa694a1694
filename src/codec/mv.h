#ifndef VTRANS_CODEC_MV_H_
#define VTRANS_CODEC_MV_H_

/**
 * @file
 * Motion vectors and their rate cost. MVs are in quarter-pel units
 * throughout the codec; rate costs mirror the exp-Golomb lengths the
 * bitstream writer will actually emit for the MV difference.
 */

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace vtrans::codec {

/** A motion vector in quarter-pel units. */
struct Mv
{
    int16_t x = 0;
    int16_t y = 0;

    bool operator==(const Mv& o) const { return x == o.x && y == o.y; }
    bool operator!=(const Mv& o) const { return !(*this == o); }
};

/** Exp-Golomb code length in bits of an unsigned value: value + 1 in
 *  binary, preceded by one fewer zero bits than it has digits. */
inline int
ueBits(uint32_t value)
{
    const uint64_t code = static_cast<uint64_t>(value) + 1;
    return 2 * static_cast<int>(std::bit_width(code)) - 1;
}

/** Exp-Golomb code length in bits of a signed value. */
inline int
seBits(int32_t value)
{
    const uint32_t mapped = value > 0
                                ? static_cast<uint32_t>(value) * 2 - 1
                                : static_cast<uint32_t>(-value) * 2;
    return ueBits(mapped);
}

/** Bits to encode the MV difference (mv - pred), both in quarter-pel. */
inline int
mvdBits(const Mv& mv, const Mv& pred)
{
    return seBits(mv.x - pred.x) + seBits(mv.y - pred.y);
}

/** Median of three values (the H.264 MV predictor combinator). */
inline int
median3(int a, int b, int c)
{
    const int mx = a > b ? a : b;
    const int mn = a > b ? b : a;
    return c > mx ? mx : (c < mn ? mn : c);
}

/** Median MV predictor from left/top/top-right neighbor MVs. */
inline Mv
medianMv(const Mv& left, const Mv& top, const Mv& topright)
{
    Mv out;
    out.x = static_cast<int16_t>(median3(left.x, top.x, topright.x));
    out.y = static_cast<int16_t>(median3(left.y, top.y, topright.y));
    return out;
}

/** Motion state of one coded macroblock: what MV prediction reads. */
struct MbMotion
{
    Mv mv0, mv1;
    bool intra = true;
};

/**
 * The median MV predictor of list `list` (0 or 1) for macroblock
 * (mbx, mby), from the states of the frame's macroblocks coded so far
 * (`frame`, raster order, `mb_w` per row): left, top and top-right
 * (top-left at the right edge) neighbours, an intra or missing one
 * counting as zero. VX1 codes every MV as its difference from this.
 */
inline Mv
predictMv(const std::vector<MbMotion>& frame, int mb_w, int mbx, int mby,
          int list)
{
    auto fetch = [&](int x, int y) -> Mv {
        if (x < 0 || y < 0 || x >= mb_w) {
            return Mv{};
        }
        const MbMotion& st = frame[y * mb_w + x];
        if (st.intra) {
            return Mv{};
        }
        return list == 0 ? st.mv0 : st.mv1;
    };
    const Mv left = fetch(mbx - 1, mby);
    const Mv top = fetch(mbx, mby - 1);
    const Mv topright = (mbx + 1 < mb_w) ? fetch(mbx + 1, mby - 1)
                                         : fetch(mbx - 1, mby - 1);
    return medianMv(left, top, topright);
}

} // namespace vtrans::codec

#endif // VTRANS_CODEC_MV_H_
