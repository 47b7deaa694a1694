#include "codec/intra.h"

#include <algorithm>
#include <cstdlib>

#include "codec/pixel.h"
#include "codec/strategies/strategies.h"
#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

using video::Frame;
using video::Plane;

namespace {

/** Gathers the 16 top and 16 left reconstructed neighbors of an MB. */
struct Neighbors16
{
    uint8_t top[16];
    uint8_t left[16];
    bool have_top = false;
    bool have_left = false;
};

Neighbors16
gatherNeighbors16(const Frame& recon, int mx, int my)
{
    VT_SITE(site, IntraGather16);
    trace::block(site);
    Neighbors16 n;
    if (my > 0) {
        n.have_top = true;
        trace::load(recon.simAddr(Plane::Y, mx, my - 1), 16);
        for (int x = 0; x < 16; ++x) {
            n.top[x] = recon.at(Plane::Y, mx + x, my - 1);
        }
    }
    if (mx > 0) {
        n.have_left = true;
        for (int y = 0; y < 16; ++y) {
            n.left[y] = recon.at(Plane::Y, mx - 1, my + y);
        }
        trace::load(recon.simAddr(Plane::Y, mx - 1, my), 1);
        trace::load(recon.simAddr(Plane::Y, mx - 1, my + 15), 1);
    }
    return n;
}

} // namespace

void
predictIntra16(const Frame& recon, int mx, int my, Intra16Mode mode,
               uint8_t pred[256])
{
    VT_SITE(site, IntraPred16);
    trace::block(site);
    trace::store(static_cast<uint64_t>(Scratch::Pred), 256);

    const Neighbors16 n = gatherNeighbors16(recon, mx, my);

    switch (mode) {
      case Intra16Mode::V: {
        for (int y = 0; y < 16; ++y) {
            for (int x = 0; x < 16; ++x) {
                pred[y * 16 + x] = n.have_top ? n.top[x] : 128;
            }
        }
        break;
      }
      case Intra16Mode::H: {
        for (int y = 0; y < 16; ++y) {
            const uint8_t v = n.have_left ? n.left[y] : 128;
            for (int x = 0; x < 16; ++x) {
                pred[y * 16 + x] = v;
            }
        }
        break;
      }
      case Intra16Mode::DC: {
        int sum = 0;
        int count = 0;
        if (n.have_top) {
            for (int x = 0; x < 16; ++x) {
                sum += n.top[x];
            }
            count += 16;
        }
        if (n.have_left) {
            for (int y = 0; y < 16; ++y) {
                sum += n.left[y];
            }
            count += 16;
        }
        const uint8_t dc =
            count > 0 ? static_cast<uint8_t>((sum + count / 2) / count) : 128;
        std::fill(pred, pred + 256, dc);
        break;
      }
      case Intra16Mode::Planar: {
        // Simplified plane fit from the corner gradients.
        const int tl = (n.have_top && n.have_left)
                           ? (n.top[0] + n.left[0]) / 2
                           : 128;
        const int tr = n.have_top ? n.top[15] : tl;
        const int bl = n.have_left ? n.left[15] : tl;
        for (int y = 0; y < 16; ++y) {
            for (int x = 0; x < 16; ++x) {
                const int v = tl + ((tr - tl) * x + (bl - tl) * y + 8) / 16;
                pred[y * 16 + x] =
                    static_cast<uint8_t>(std::clamp(v, 0, 255));
            }
        }
        break;
      }
    }
}

namespace {

/** The reconstructed edge a 4x4 block predicts from: eight top
 *  neighbors (with top-right replication past the frame edge), four left
 *  neighbors and the top-left corner, 128 where the frame has none. */
struct Edges4
{
    uint8_t top[8];
    uint8_t left[4];
    uint8_t tl;
    bool have_top;
    bool have_left;
};

Edges4
gatherEdges4(const Frame& recon, int x, int y)
{
    Edges4 e;
    e.have_top = y > 0;
    e.have_left = x > 0;
    if (e.have_top) {
        for (int i = 0; i < 8; ++i) {
            const int tx = std::min(x + i, recon.width() - 1);
            e.top[i] = recon.at(Plane::Y, tx, y - 1);
        }
    } else {
        std::fill(e.top, e.top + 8, 128);
    }
    if (e.have_left) {
        for (int i = 0; i < 4; ++i) {
            e.left[i] = recon.at(Plane::Y, x - 1, y + i);
        }
    } else {
        std::fill(e.left, e.left + 4, 128);
    }
    e.tl = (e.have_top && e.have_left) ? recon.at(Plane::Y, x - 1, y - 1)
                                       : 128;
    return e;
}

/** The probe events of one 4x4 prediction: the block, its store to the
 *  prediction scratch and its edge loads. */
void
emitPredict4(const Frame& recon, int x, int y, const Edges4& e)
{
    VT_SITE(site, IntraPred4);
    trace::block(site);
    trace::store(static_cast<uint64_t>(Scratch::Pred), 16);
    if (e.have_top) {
        trace::load(recon.simAddr(Plane::Y, x, y - 1), 8);
    }
    if (e.have_left) {
        trace::load(recon.simAddr(Plane::Y, x - 1, y), 1);
    }
}

void
predictFromEdges4(const Edges4& e, Intra4Mode mode, uint8_t pred[16])
{
    const uint8_t* top = e.top;
    const uint8_t* left = e.left;
    switch (mode) {
      case Intra4Mode::V: {
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                pred[r * 4 + c] = top[c];
            }
        }
        break;
      }
      case Intra4Mode::H: {
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                pred[r * 4 + c] = left[r];
            }
        }
        break;
      }
      case Intra4Mode::DC: {
        int sum = 0;
        int count = 0;
        if (e.have_top) {
            sum += top[0] + top[1] + top[2] + top[3];
            count += 4;
        }
        if (e.have_left) {
            sum += left[0] + left[1] + left[2] + left[3];
            count += 4;
        }
        const uint8_t dc =
            count > 0 ? static_cast<uint8_t>((sum + count / 2) / count) : 128;
        std::fill(pred, pred + 16, dc);
        break;
      }
      case Intra4Mode::DiagDL: {
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                const int i = r + c;
                const uint8_t a = top[std::min(i, 7)];
                const uint8_t b = top[std::min(i + 1, 7)];
                pred[r * 4 + c] = static_cast<uint8_t>((a + b + 1) >> 1);
            }
        }
        break;
      }
      case Intra4Mode::DiagDR: {
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                const int d = c - r;
                uint8_t v;
                if (d > 0) {
                    v = top[d - 1];
                } else if (d < 0) {
                    v = left[-d - 1];
                } else {
                    v = e.tl;
                }
                pred[r * 4 + c] = v;
            }
        }
        break;
      }
    }
}

} // namespace

void
predictIntra4(const Frame& recon, int x, int y, Intra4Mode mode,
              uint8_t pred[16])
{
    const Edges4 e = gatherEdges4(recon, x, y);
    emitPredict4(recon, x, y, e);
    predictFromEdges4(e, mode, pred);
}

void
predictChromaDc(const Frame& recon, Plane plane, int cx, int cy,
                uint8_t pred[64])
{
    VT_SITE(site, IntraPredchroma);
    trace::block(site);
    trace::store(static_cast<uint64_t>(Scratch::Pred), 64);

    int sum = 0;
    int count = 0;
    if (cy > 0) {
        trace::load(recon.simAddr(plane, cx, cy - 1), 8);
        for (int x = 0; x < 8; ++x) {
            sum += recon.at(plane, cx + x, cy - 1);
        }
        count += 8;
    }
    if (cx > 0) {
        trace::load(recon.simAddr(plane, cx - 1, cy), 1);
        for (int y = 0; y < 8; ++y) {
            sum += recon.at(plane, cx - 1, cy + y);
        }
        count += 8;
    }
    const uint8_t dc =
        count > 0 ? static_cast<uint8_t>((sum + count / 2) / count) : 128;
    std::fill(pred, pred + 64, dc);
}

Intra16Mode
chooseIntra16(const Frame& cur, const Frame& recon, int mx, int my,
              bool use_satd, int lambda_fp, int* cost_out)
{
    uint8_t pred[256];
    int best_cost = INT32_MAX;
    Intra16Mode best_mode = Intra16Mode::DC;
    for (int m = 0; m < kIntra16Modes; ++m) {
        const auto mode = static_cast<Intra16Mode>(m);
        predictIntra16(recon, mx, my, mode, pred);
        int cost;
        if (use_satd) {
            cost = satdBlock(cur, mx, my, pred, 16, 16, 16,
                             static_cast<uint64_t>(Scratch::Pred));
        } else {
            VT_SITE(site_sad, IntraSad16);
            trace::block(site_sad);
            cost = 0;
            for (int y = 0; y < 16; ++y) {
                trace::load(cur.simAddr(Plane::Y, mx, my + y), 16);
                trace::load(
                    static_cast<uint64_t>(Scratch::Pred) + y * 16ull, 16);
                for (int x = 0; x < 16; ++x) {
                    cost += std::abs(
                        static_cast<int>(cur.at(Plane::Y, mx + x, my + y))
                        - pred[y * 16 + x]);
                }
            }
        }
        cost += (lambda_fp * 2) >> 4; // ~2 bits per mode signal
        VT_SITE(site_cmp, IntraCmp16);
        const bool better = cost < best_cost;
        trace::branch(site_cmp, better);
        if (better) {
            best_cost = cost;
            best_mode = mode;
        }
    }
    *cost_out = best_cost;
    return best_mode;
}

Intra4Mode
chooseIntra4(const Frame& cur, const Frame& recon, int x, int y,
             bool use_satd, int lambda_fp, int* cost_out)
{
    // Every mode predicts from the same edge, so it is gathered once;
    // each mode still emits its own prediction's events.
    const Edges4 edges = gatherEdges4(recon, x, y);
    const int cstride = cur.stride(Plane::Y);
    const uint8_t* cur_block =
        cur.data(Plane::Y) + static_cast<ptrdiff_t>(y) * cstride + x;
    const auto sad_rows = kernels().sad_rows;
    uint8_t pred[16];
    int best_cost = INT32_MAX;
    Intra4Mode best_mode = Intra4Mode::DC;
    for (int m = 0; m < kIntra4Modes; ++m) {
        const auto mode = static_cast<Intra4Mode>(m);
        emitPredict4(recon, x, y, edges);
        predictFromEdges4(edges, mode, pred);
        int cost;
        if (use_satd) {
            cost = satd4x4(cur, x, y, pred, 4,
                           static_cast<uint64_t>(Scratch::Pred));
        } else {
            VT_SITE(site_sad, IntraSad4);
            trace::block(site_sad);
            if (trace::active()) {
                for (int r = 0; r < 4; ++r) {
                    trace::load(cur.simAddr(Plane::Y, x, y + r), 4);
                }
            }
            cost = sad_rows(cur_block, cstride, pred, 4, 4, 4);
        }
        cost += (lambda_fp * 3) >> 4; // ~3 bits per 4x4 mode signal
        VT_SITE(site_cmp, IntraCmp4);
        const bool better = cost < best_cost;
        trace::branch(site_cmp, better);
        if (better) {
            best_cost = cost;
            best_mode = mode;
        }
    }
    *cost_out = best_cost;
    return best_mode;
}

} // namespace vtrans::codec
