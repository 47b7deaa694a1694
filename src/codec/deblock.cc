#include "codec/deblock.h"

#include <algorithm>
#include <cmath>

#include "codec/loopflags.h"
#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

using video::Frame;
using video::Plane;

int
deblockAlpha(int qp, int offset)
{
    const int q = std::clamp(qp + offset * 2, 0, 51);
    if (q < 16) {
        return 0;
    }
    // Exponential ramp approximating the H.264 alpha table.
    const double a = 0.8 * std::pow(2.0, q / 6.0);
    return std::min(255, static_cast<int>(a));
}

int
deblockBeta(int qp, int offset)
{
    const int q = std::clamp(qp + offset * 2, 0, 51);
    if (q < 16) {
        return 0;
    }
    return std::min(18, q / 4 - 2);
}

namespace {

/** Filters one 1-D edge sample quartet (p1 p0 | q0 q1) in place. */
inline void
filterSamples(uint8_t& p1, uint8_t& p0, uint8_t& q0, uint8_t& q1, int alpha,
              int beta, int c0)
{
    const int dp0q0 = std::abs(static_cast<int>(p0) - q0);
    const int dp1p0 = std::abs(static_cast<int>(p1) - p0);
    const int dq1q0 = std::abs(static_cast<int>(q1) - q0);
    if (dp0q0 >= alpha || dp1p0 >= beta || dq1q0 >= beta) {
        return;
    }
    const int delta = std::clamp(
        (((static_cast<int>(q0) - p0) * 4 + (p1 - q1) + 4) >> 3), -c0, c0);
    p0 = static_cast<uint8_t>(std::clamp(p0 + delta, 0, 255));
    q0 = static_cast<uint8_t>(std::clamp(q0 - delta, 0, 255));
}

} // namespace

void
deblockFrame(Frame& frame, const DeblockConfig& config, const int* qp_map,
             int mb_w, int mb_h)
{
    if (!config.enabled) {
        return;
    }
    VT_ASSERT(qp_map != nullptr, "deblock requires a QP map");

    auto qpAt = [&](int mbx, int mby) {
        mbx = std::clamp(mbx, 0, mb_w - 1);
        mby = std::clamp(mby, 0, mb_h - 1);
        return qp_map[mby * mb_w + mbx];
    };

    const int w = frame.width();
    const int h = frame.height();

    // Vertical edges (filter across columns) at x = 8, 16, 24, ... Edges
    // at MB boundaries use the average QP of the two MBs. The per-sample
    // work at (x, y) is independent of every other edge sample, so the
    // two loop orders below are semantically identical; the interchanged
    // order (Graphite's -floop-interchange, see loopflags.h) walks the
    // frame row-major instead of column-major.
    auto vertical_sample = [&](int x, int y) {
        const int mbx_r = x / 16;
        const int qp = (x % 16 == 0)
                           ? (qpAt(mbx_r - 1, y / 16)
                              + qpAt(mbx_r, y / 16) + 1) / 2
                           : qpAt(x / 16, y / 16);
        const int alpha = deblockAlpha(qp, config.alpha_offset);
        const int beta = deblockBeta(qp, config.beta_offset);
        if (alpha == 0 || beta == 0) {
            return;
        }
        const int c0 = 1 + qp / 10;
        trace::load(frame.simAddr(Plane::Y, x - 2, y), 4);
        uint8_t& p1 = frame.at(Plane::Y, x - 2, y);
        uint8_t& p0 = frame.at(Plane::Y, x - 1, y);
        uint8_t& q0 = frame.at(Plane::Y, x, y);
        uint8_t& q1 = frame.at(Plane::Y, x + 1, y);
        VT_SITE(site_f, DeblockFilter);
        const bool active = std::abs(static_cast<int>(p0) - q0) < alpha;
        trace::branch(site_f, active);
        filterSamples(p1, p0, q0, q1, alpha, beta, c0);
        trace::store(frame.simAddr(Plane::Y, x - 1, y), 2);
    };
    auto vertical_sample_branchless = [&](int x, int y) {
        const int mbx_r = x / 16;
        const int qp = (x % 16 == 0)
                           ? (qpAt(mbx_r - 1, y / 16)
                              + qpAt(mbx_r, y / 16) + 1) / 2
                           : qpAt(x / 16, y / 16);
        const int alpha = deblockAlpha(qp, config.alpha_offset);
        const int beta = deblockBeta(qp, config.beta_offset);
        if (alpha == 0 || beta == 0) {
            return;
        }
        const int c0 = 1 + qp / 10;
        trace::load(frame.simAddr(Plane::Y, x - 2, y), 4);
        uint8_t& p1 = frame.at(Plane::Y, x - 2, y);
        uint8_t& p0 = frame.at(Plane::Y, x - 1, y);
        uint8_t& q0 = frame.at(Plane::Y, x, y);
        uint8_t& q1 = frame.at(Plane::Y, x + 1, y);
        filterSamples(p1, p0, q0, q1, alpha, beta, c0);
        trace::store(frame.simAddr(Plane::Y, x - 1, y), 2);
    };
    if (loopOptFlags().interchange_deblock) {
        // Interchanged row-major schedule. Walking the row lets the
        // compiler vectorize the filter (masked select instead of the
        // per-sample branch), so the restructured loop carries a block
        // probe per edge-group and no data-dependent branch; loads and
        // stores (and the arithmetic) are unchanged.
        for (int y = 0; y < h; ++y) {
            for (int x = 8; x < w; x += 8) {
                if (((x - 8) & 31) == 0) {
                    VT_SITE(site, DeblockVedgeSimd4);
                    trace::block(site);
                }
                vertical_sample_branchless(x, y);
            }
        }
    } else {
        for (int x = 8; x < w; x += 8) {
            for (int y = 0; y < h; ++y) {
                if ((y & 15) == 0) {
                    VT_SITE(site, DeblockVedgeRows16);
                    trace::block(site);
                }
                vertical_sample(x, y);
            }
        }
    }

    // Horizontal edges (filter across rows) at y = 8, 16, 24, ...
    for (int y = 8; y < h; y += 8) {
        for (int x = 0; x < w; ++x) {
            if ((x & 15) == 0) {
                VT_SITE(site, DeblockHedgeCols16);
                trace::block(site);
                trace::load(frame.simAddr(Plane::Y, x, y - 2), 16);
                trace::load(frame.simAddr(Plane::Y, x, y - 1), 16);
                trace::load(frame.simAddr(Plane::Y, x, y), 16);
                trace::load(frame.simAddr(Plane::Y, x, y + 1), 16);
                trace::store(frame.simAddr(Plane::Y, x, y - 1), 16);
                trace::store(frame.simAddr(Plane::Y, x, y), 16);
            }
            const int mby_b = y / 16;
            const int qp = (y % 16 == 0)
                               ? (qpAt(x / 16, mby_b - 1)
                                  + qpAt(x / 16, mby_b) + 1) / 2
                               : qpAt(x / 16, y / 16);
            const int alpha = deblockAlpha(qp, config.alpha_offset);
            const int beta = deblockBeta(qp, config.beta_offset);
            if (alpha == 0 || beta == 0) {
                continue;
            }
            const int c0 = 1 + qp / 10;
            uint8_t& p1 = frame.at(Plane::Y, x, y - 2);
            uint8_t& p0 = frame.at(Plane::Y, x, y - 1);
            uint8_t& q0 = frame.at(Plane::Y, x, y);
            uint8_t& q1 = frame.at(Plane::Y, x, y + 1);
            VT_SITE(site_f, DeblockFilterH);
            const bool active =
                std::abs(static_cast<int>(p0) - q0) < alpha;
            trace::branch(site_f, active);
            filterSamples(p1, p0, q0, q1, alpha, beta, c0);
        }
    }

    // Chroma: macroblock edges only, both planes.
    for (const Plane plane : {Plane::Cb, Plane::Cr}) {
        const int cw = frame.chromaWidth();
        const int ch = frame.chromaHeight();
        auto chroma_vertical = [&](int x, int y, bool probe) {
            if (probe) {
                VT_SITE(site, DeblockChromaV);
                trace::block(site);
            }
            trace::load(frame.simAddr(plane, x - 2, y), 4);
            trace::store(frame.simAddr(plane, x - 1, y), 2);
            const int qp = (qpAt(x / 8 - 1, y / 8) + qpAt(x / 8, y / 8)
                            + 1) / 2;
            const int alpha = deblockAlpha(qp, config.alpha_offset);
            const int beta = deblockBeta(qp, config.beta_offset);
            if (alpha == 0 || beta == 0) {
                return;
            }
            uint8_t& p1 = frame.at(plane, x - 2, y);
            uint8_t& p0 = frame.at(plane, x - 1, y);
            uint8_t& q0 = frame.at(plane, x, y);
            uint8_t& q1 = frame.at(plane, x + 1, y);
            filterSamples(p1, p0, q0, q1, alpha, beta, 1 + qp / 12);
        };
        if (loopOptFlags().interchange_deblock) {
            // Same interchange as the luma vertical pass: row-major walk.
            for (int y = 0; y < ch; ++y) {
                for (int x = 8; x < cw; x += 8) {
                    chroma_vertical(x, y, ((x - 8) & 15) == 0);
                }
            }
        } else {
            for (int x = 8; x < cw; x += 8) {
                for (int y = 0; y < ch; ++y) {
                    chroma_vertical(x, y, (y & 7) == 0);
                }
            }
        }
        for (int y = 8; y < ch; y += 8) {
            for (int x = 0; x < cw; ++x) {
                if ((x & 7) == 0) {
                    VT_SITE(site, DeblockChromaH);
                    trace::block(site);
                    trace::load(frame.simAddr(plane, x, y - 2), 8);
                    trace::load(frame.simAddr(plane, x, y), 8);
                    trace::store(frame.simAddr(plane, x, y - 1), 8);
                }
                const int qp =
                    (qpAt(x / 8, y / 8 - 1) + qpAt(x / 8, y / 8) + 1) / 2;
                const int alpha = deblockAlpha(qp, config.alpha_offset);
                const int beta = deblockBeta(qp, config.beta_offset);
                if (alpha == 0 || beta == 0) {
                    continue;
                }
                uint8_t& p1 = frame.at(plane, x, y - 2);
                uint8_t& p0 = frame.at(plane, x, y - 1);
                uint8_t& q0 = frame.at(plane, x, y);
                uint8_t& q1 = frame.at(plane, x, y + 1);
                filterSamples(p1, p0, q0, q1, alpha, beta, 1 + qp / 12);
            }
        }
    }
}

} // namespace vtrans::codec
