#include "codec/pixel.h"

#include <algorithm>
#include <cstring>

#include "codec/strategies/strategies.h"
#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

using video::Frame;
using video::Plane;

namespace {

/** Largest window a kernel call reads: a 16x16 block plus the bilinear
 *  filter's extra column and row. */
constexpr int kEdgeTile = 17;

/**
 * Copies the w x h window at (x, y) of plane `p` into `tile` (stride
 * kEdgeTile) with every coordinate clamped into the plane: the frame-edge
 * extension out-of-frame motion vectors read. The kernels then run on
 * the tile exactly as they run on an interior window of the plane.
 */
void
gatherClamped(const Frame& ref, Plane p, int x, int y, int w, int h,
              uint8_t* tile)
{
    const uint8_t* plane = ref.data(p);
    const int stride = ref.stride(p);
    const int max_y = ref.planeHeight(p) - 1;
    // Every row splits the same way: columns [0, inside) left of the
    // plane repeat its first pixel, [inside, outside) are in the plane,
    // and [outside, w) right of it repeat its last pixel.
    const int inside = std::clamp(-x, 0, w);
    const int outside = std::clamp(stride - x, inside, w);
    uint8_t* row = tile;
    for (int r = 0; r < h; ++r, row += kEdgeTile) {
        const uint8_t* src =
            plane + static_cast<ptrdiff_t>(std::clamp(y + r, 0, max_y))
                        * stride;
        std::memset(row, src[0], static_cast<size_t>(inside));
        if (outside > inside) {
            std::memcpy(row + inside, src + x + inside,
                        static_cast<size_t>(outside - inside));
        }
        std::memset(row + outside, src[stride - 1],
                    static_cast<size_t>(w - outside));
    }
}

/**
 * True when the w x h *full-pel* window at (x, y) lies inside the luma
 * plane, so edge clamping is the identity and the strategy kernels (which
 * take raw pointers, no clamping) compute the same values.
 */
inline bool
fullpelInterior(const Frame& ref, int x, int y, int w, int h)
{
    return x >= 0 && y >= 0 && x + w <= ref.width() && y + h <= ref.height();
}

/**
 * True when the bilinear window at full-pel (x, y) — which also reads
 * column x+w-1+1 and row y+h-1+1 — lies inside the luma plane.
 */
inline bool
subpelInterior(const Frame& ref, int x, int y, int w, int h)
{
    return x >= 0 && y >= 0 && x + w < ref.width() && y + h < ref.height();
}

} // namespace

int
sadBlock(const Frame& cur, int cx, int cy, const Frame& ref, int rx, int ry,
         int w, int h, int best)
{
    VT_ASSERT(w == 4 || w == 8 || w == 16, "unsupported SAD width");
    // SIMD SAD works in 8-row chunks; early termination is only checked
    // between chunks, as in x264's pixel_sad ladders.
    const int chunk = h >= 8 ? 8 : h;
    const KernelOps& ops = kernels();
    const int cstride = cur.stride(Plane::Y);
    const uint8_t* cur_row =
        cur.data(Plane::Y) + static_cast<ptrdiff_t>(cy) * cstride + cx;
    // Reference rows come from the plane, or from an edge-extended copy
    // of the window when it leaves the plane.
    uint8_t edge[kEdgeTile * kEdgeTile];
    const uint8_t* ref_row = edge;
    int rstride = kEdgeTile;
    if (fullpelInterior(ref, rx, ry, w, h)) {
        rstride = ref.stride(Plane::Y);
        ref_row =
            ref.data(Plane::Y) + static_cast<ptrdiff_t>(ry) * rstride + rx;
    } else {
        gatherClamped(ref, Plane::Y, rx, ry, w, h, edge);
    }
    int sad = 0;
    for (int y0 = 0; y0 < h; y0 += chunk) {
        if (vectorKernelModel()) {
            VT_SITE(site_vec, PixelSadRows8Vec);
            trace::block(site_vec);
        } else {
            VT_SITE(site_rows, PixelSadRows8);
            trace::block(site_rows);
        }
        // Guarded so native (sink-less) runs skip the simulated-address
        // math entirely; load() would drop the events anyway.
        if (trace::active()) {
            for (int dy = 0; dy < chunk; ++dy) {
                const int y = y0 + dy;
                trace::load(cur.simAddr(Plane::Y, cx, cy + y), w);
                trace::load(
                    ref.simAddr(Plane::Y, std::clamp(rx, 0, ref.width() - 1),
                                std::clamp(ry + y, 0, ref.height() - 1)),
                    w);
            }
        }
        sad += ops.sad_rows(cur_row + y0 * cstride, cstride,
                            ref_row + y0 * rstride, rstride, w, chunk);
        // Early termination: data-dependent branch against the best cost.
        VT_SITE(site_early, PixelSadEarlyExit);
        const bool bail = sad >= best;
        trace::branch(site_early, bail);
        if (bail) {
            return sad;
        }
    }
    return sad;
}

int
sadSubpel(const Frame& cur, int cx, int cy, const Frame& ref, int mvx,
          int mvy, int w, int h, int best)
{
    const int bx4 = cx * 4 + mvx;
    const int by4 = cy * 4 + mvy;
    const int xi0 = bx4 >> 2;
    const int yi0 = by4 >> 2;
    const int fx = bx4 & 3;
    const int fy = by4 & 3;
    VT_ASSERT(w <= 16 && h <= 16, "unsupported subpel SAD block");
    const KernelOps& ops = kernels();
    const int cstride = cur.stride(Plane::Y);
    const uint8_t* cur_row =
        cur.data(Plane::Y) + static_cast<ptrdiff_t>(cy) * cstride + cx;
    // Full-pel MVs compare directly against reference rows; fractional MVs
    // interpolate into a stack tile first (both via the strategy kernels).
    // A window that leaves the plane is read from an edge-extended copy.
    const bool fullpel = fx == 0 && fy == 0;
    uint8_t edge[kEdgeTile * kEdgeTile];
    const uint8_t* ref_row = edge;
    int rstride = kEdgeTile;
    if (fullpel ? fullpelInterior(ref, xi0, yi0, w, h)
                : subpelInterior(ref, xi0, yi0, w, h)) {
        rstride = ref.stride(Plane::Y);
        ref_row =
            ref.data(Plane::Y) + static_cast<ptrdiff_t>(yi0) * rstride + xi0;
    } else {
        gatherClamped(ref, Plane::Y, xi0, yi0, w + 1, h + 1, edge);
    }
    int sad = 0;
    for (int y0 = 0; y0 < h; y0 += 4) {
        // Interpolating SAD touches two reference rows per output row.
        if (vectorKernelModel()) {
            VT_SITE(site_vec, PixelSadsubRows4Vec);
            trace::block(site_vec);
        } else {
            VT_SITE(site_rows, PixelSadsubRows4);
            trace::block(site_rows);
        }
        if (trace::active()) {
            for (int dy = 0; dy < 4; ++dy) {
                const int y = y0 + dy;
                trace::load(cur.simAddr(Plane::Y, cx, cy + y), w);
                const int ry =
                    std::clamp((by4 >> 2) + y, 0, ref.height() - 1);
                const int rx = std::clamp(bx4 >> 2, 0, ref.width() - 1);
                trace::load(ref.simAddr(Plane::Y, rx, ry), w + 1);
                trace::load(ref.simAddr(Plane::Y, rx,
                                        std::min(ry + 1, ref.height() - 1)),
                            w + 1);
            }
        }
        if (fullpel) {
            sad += ops.sad_rows(cur_row + y0 * cstride, cstride,
                                ref_row + y0 * rstride, rstride, w, 4);
        } else {
            uint8_t tile[16 * 4];
            ops.mc_bilinear(tile, w, ref_row + y0 * rstride, rstride, w, 4,
                            fx, fy);
            sad += ops.sad_rows(cur_row + y0 * cstride, cstride, tile, w, w,
                                4);
        }
        VT_SITE(site_early, PixelSadsubEarlyExit);
        const bool bail = sad >= best;
        trace::branch(site_early, bail);
        if (bail) {
            return sad;
        }
    }
    return sad;
}

int
satd4x4(const Frame& cur, int cx, int cy, const uint8_t* pred, int pstride,
        uint64_t pred_sim)
{
    if (vectorKernelModel()) {
        VT_SITE(site_vec, PixelSatd4x4Vec);
        trace::block(site_vec);
    } else {
        VT_SITE(site, PixelSatd4x4);
        trace::block(site);
    }
    if (trace::active()) {
        for (int y = 0; y < 4; ++y) {
            trace::load(cur.simAddr(Plane::Y, cx, cy + y), 4);
            trace::load(pred_sim + static_cast<uint64_t>(y) * pstride, 4);
        }
    }
    // Current-frame 4x4 tiles are always in-plane and pred is a raw tile,
    // so the strategy kernel applies unconditionally.
    return kernels().satd4x4(cur.data(Plane::Y)
                                 + static_cast<ptrdiff_t>(cy)
                                       * cur.stride(Plane::Y)
                                 + cx,
                             cur.stride(Plane::Y), pred, pstride);
}

int
satdBlock(const Frame& cur, int cx, int cy, const uint8_t* pred, int pstride,
          int w, int h, uint64_t pred_sim)
{
    int total = 0;
    for (int y = 0; y < h; y += 4) {
        for (int x = 0; x < w; x += 4) {
            total += satd4x4(cur, cx + x, cy + y, pred + y * pstride + x,
                             pstride,
                             pred_sim + static_cast<uint64_t>(y) * pstride
                                 + x);
        }
    }
    return total;
}

void
mcLumaBlock(uint8_t* dst, int dstride, const Frame& ref, int cx, int cy,
            int mvx, int mvy, int w, int h, uint64_t dst_sim)
{
    const int bx4 = cx * 4 + mvx;
    const int by4 = cy * 4 + mvy;
    const bool subpel = (mvx & 3) || (mvy & 3);
    for (int y = 0; y < h; ++y) {
        if (vectorKernelModel()) {
            // Vector MC emits one block per *pair* of rows: the SIMD loop
            // body processes two rows per iteration.
            if ((y & 1) == 0) {
                VT_SITE(site_pair, PixelMcRowpairVec);
                trace::block(site_pair);
            }
        } else {
            VT_SITE(site_row, PixelMcRow);
            trace::block(site_row);
        }
        if (trace::active()) {
            const int ry = std::clamp((by4 >> 2) + y, 0, ref.height() - 1);
            const int rx = std::clamp(bx4 >> 2, 0, ref.width() - 1);
            trace::load(ref.simAddr(Plane::Y, rx, ry), w + 1);
            if (subpel) {
                trace::load(ref.simAddr(Plane::Y, rx,
                                        std::min(ry + 1, ref.height() - 1)),
                            w + 1);
            }
            trace::store(dst_sim + static_cast<uint64_t>(y) * dstride, w);
        }
    }
    const int xi0 = bx4 >> 2;
    const int yi0 = by4 >> 2;
    VT_ASSERT(w <= 16 && h <= 16, "unsupported luma MC block");
    uint8_t edge[kEdgeTile * kEdgeTile];
    const uint8_t* src = edge;
    int sstride = kEdgeTile;
    if (subpel ? subpelInterior(ref, xi0, yi0, w, h)
               : fullpelInterior(ref, xi0, yi0, w, h)) {
        sstride = ref.stride(Plane::Y);
        src = ref.data(Plane::Y) + static_cast<ptrdiff_t>(yi0) * sstride
              + xi0;
    } else {
        gatherClamped(ref, Plane::Y, xi0, yi0, w + 1, h + 1, edge);
    }
    const KernelOps& ops = kernels();
    if (subpel) {
        ops.mc_bilinear(dst, dstride, src, sstride, w, h, bx4 & 3, by4 & 3);
    } else {
        ops.mc_copy(dst, dstride, src, sstride, w, h);
    }
}

void
mcChromaBlock(uint8_t* dst, int dstride, const Frame& ref, Plane plane,
              int cx, int cy, int mvx, int mvy, int w, int h,
              uint64_t dst_sim)
{
    // Chroma plane is half resolution; a luma quarter-pel MV becomes an
    // eighth-pel chroma MV. We round to chroma quarter-pel and sample
    // bilinearly at half the displacement. The halving must floor (>> 1),
    // not truncate toward zero: a luma MV of -3 must round the same
    // distance left as +3 rounds right, or negative-MV chroma prediction
    // is biased one eighth-pel toward zero relative to luma.
    const int cmvx = mvx >> 1;
    const int cmvy = mvy >> 1;
    const int bx4 = cx * 4 + cmvx;
    const int by4 = cy * 4 + cmvy;
    for (int y = 0; y < h; ++y) {
        VT_SITE(site_row, PixelMcchromaRow);
        trace::block(site_row);
        if (trace::active()) {
            const int ry =
                std::clamp((by4 >> 2) + y, 0, ref.chromaHeight() - 1);
            const int rx = std::clamp(bx4 >> 2, 0, ref.chromaWidth() - 1);
            trace::load(ref.simAddr(plane, rx, ry), w + 1);
            trace::store(dst_sim + static_cast<uint64_t>(y) * dstride, w);
        }
    }
    const int xi0 = bx4 >> 2;
    const int yi0 = by4 >> 2;
    // Chroma always evaluates the 4-tap bilinear form (no full-pel
    // shortcut), so the interior window needs the +1 column and row even
    // at zero fractions.
    VT_ASSERT(w <= 16 && h <= 16, "unsupported chroma MC block");
    uint8_t edge[kEdgeTile * kEdgeTile];
    const uint8_t* src = edge;
    int sstride = kEdgeTile;
    if (xi0 >= 0 && yi0 >= 0 && xi0 + w < ref.chromaWidth()
        && yi0 + h < ref.chromaHeight()) {
        sstride = ref.stride(plane);
        src = ref.data(plane) + static_cast<ptrdiff_t>(yi0) * sstride + xi0;
    } else {
        gatherClamped(ref, plane, xi0, yi0, w + 1, h + 1, edge);
    }
    kernels().mc_bilinear(dst, dstride, src, sstride, w, h, bx4 & 3,
                          by4 & 3);
}

void
averageBlocks(uint8_t* dst, const uint8_t* a, const uint8_t* b, int n,
              uint64_t dst_sim)
{
    VT_SITE(site, PixelAverage);
    trace::block(site);
    trace::load(static_cast<uint64_t>(Scratch::Pred), n);
    trace::load(static_cast<uint64_t>(Scratch::Pred2), n);
    trace::store(dst_sim, n);
    kernels().average(dst, a, b, n);
}

} // namespace vtrans::codec
