#include "codec/me.h"

#include <algorithm>

#include "codec/pixel.h"
#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

using video::Frame;

namespace {

/** Internal full-pel search state for one block in one reference. */
struct Search
{
    const MeContext* ctx;
    const Frame* ref;
    int cx, cy, w, h;
    Mv pred_mv;        ///< Quarter-pel predictor for rate costs.
    int best_cost = INT32_MAX;
    int best_sad = INT32_MAX;
    int bx = 0, by = 0; ///< Best full-pel displacement.

    /** Rate-biased cost of a full-pel displacement. */
    int
    mvCost(int dx, int dy) const
    {
        Mv mv{static_cast<int16_t>(dx * 4), static_cast<int16_t>(dy * 4)};
        return (ctx->lambda_fp * mvdBits(mv, pred_mv)) >> 4;
    }

    /** Evaluates one full-pel candidate; updates the best. */
    void
    tryCandidate(int dx, int dy)
    {
        if (std::abs(dx) > ctx->merange || std::abs(dy) > ctx->merange) {
            return;
        }
        ++ctx->candidates_evaluated;
        const int rate = mvCost(dx, dy);
        if (rate >= best_cost) {
            return;
        }
        const int sad = sadBlock(*ctx->cur, cx, cy, *ref, cx + dx, cy + dy,
                                 w, h, best_cost - rate);
        const int cost = sad + rate;
        VT_SITE(site_cmp, MeCandCmp);
        const bool better = cost < best_cost;
        trace::branch(site_cmp, better);
        if (better) {
            best_cost = cost;
            best_sad = sad;
            bx = dx;
            by = dy;
        }
    }
};

/** Small-diamond iterative descent (the `dia` method). */
void
searchDia(Search& s)
{
    static const int kDia[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    bool moved = true;
    int steps = 0;
    while (moved && steps++ < 2 * s.ctx->merange) {
        VT_SITE(site_iter, MeDiaIter);
        trace::block(site_iter);
        moved = false;
        const int cx0 = s.bx;
        const int cy0 = s.by;
        for (const auto& d : kDia) {
            s.tryCandidate(cx0 + d[0], cy0 + d[1]);
        }
        VT_SITE(site_move, MeDiaMove);
        moved = (s.bx != cx0 || s.by != cy0);
        trace::branch(site_move, moved);
    }
}

/** Hexagon descent plus small-diamond refinement (the `hex` method). */
void
searchHex(Search& s)
{
    static const int kHex[6][2] = {{2, 0},  {-2, 0}, {1, 2},
                                   {-1, 2}, {1, -2}, {-1, -2}};
    bool moved = true;
    int steps = 0;
    while (moved && steps++ < s.ctx->merange) {
        VT_SITE(site_iter, MeHexIter);
        trace::block(site_iter);
        moved = false;
        const int cx0 = s.bx;
        const int cy0 = s.by;
        for (const auto& d : kHex) {
            s.tryCandidate(cx0 + d[0], cy0 + d[1]);
        }
        VT_SITE(site_move, MeHexMove);
        moved = (s.bx != cx0 || s.by != cy0);
        trace::branch(site_move, moved);
    }
    // Final small-diamond polish.
    static const int kDia[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    const int cx0 = s.bx;
    const int cy0 = s.by;
    for (const auto& d : kDia) {
        s.tryCandidate(cx0 + d[0], cy0 + d[1]);
    }
}

/** Uneven multi-hexagon search (the `umh` method). */
void
searchUmh(Search& s)
{
    // Stage 1: unsymmetrical cross — horizontal reach is the full range,
    // vertical reach is half (motion is mostly horizontal in video).
    VT_SITE(site_cross, MeUmhCross);
    trace::block(site_cross);
    const int cx0 = s.bx;
    const int cy0 = s.by;
    for (int d = 2; d <= s.ctx->merange; d += 2) {
        s.tryCandidate(cx0 + d, cy0);
        s.tryCandidate(cx0 - d, cy0);
        if (d <= s.ctx->merange / 2) {
            s.tryCandidate(cx0, cy0 + d);
            s.tryCandidate(cx0, cy0 - d);
        }
    }

    // Stage 2: 5x5 full search around the current best.
    VT_SITE(site_sq, MeUmhSquare);
    trace::block(site_sq);
    const int sx = s.bx;
    const int sy = s.by;
    for (int dy = -2; dy <= 2; ++dy) {
        for (int dx = -2; dx <= 2; ++dx) {
            if (dx == 0 && dy == 0) {
                continue;
            }
            s.tryCandidate(sx + dx, sy + dy);
        }
    }

    // Stage 3: uneven hexagon rings at growing scales.
    static const int kRing[16][2] = {
        {-4, 2},  {-4, 1},  {-4, 0}, {-4, -1}, {-4, -2}, {4, 2},
        {4, 1},   {4, 0},   {4, -1}, {4, -2},  {-2, 3},  {2, 3},
        {0, 4},   {-2, -3}, {2, -3}, {0, -4},
    };
    const int hx = s.bx;
    const int hy = s.by;
    for (int scale = 1; scale * 4 <= s.ctx->merange; ++scale) {
        VT_SITE(site_ring, MeUmhRing);
        trace::block(site_ring);
        for (const auto& d : kRing) {
            s.tryCandidate(hx + d[0] * scale, hy + d[1] * scale);
        }
    }

    // Stage 4: hexagon descent to converge.
    searchHex(s);
}

/** Exhaustive search over the window (the `esa`/`tesa` methods). */
void
searchEsa(Search& s)
{
    const int range = s.ctx->merange;
    for (int dy = -range; dy <= range; ++dy) {
        VT_SITE(site_row, MeEsaRow);
        trace::block(site_row);
        for (int dx = -range; dx <= range; ++dx) {
            s.tryCandidate(dx, dy);
        }
    }
}

/** SATD re-rank of near-best candidates (the `tesa` refinement). */
void
tesaRefine(Search& s)
{
    // Re-evaluate a 3x3 neighborhood of the SAD winner with SATD; mirrors
    // tesa's transform-aware re-ranking without a second full sweep.
    uint8_t pred[256];
    int best_satd = INT32_MAX;
    int best_dx = s.bx;
    int best_dy = s.by;
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            const int px = s.bx + dx;
            const int py = s.by + dy;
            if (std::abs(px) > s.ctx->merange
                || std::abs(py) > s.ctx->merange) {
                continue;
            }
            ++s.ctx->candidates_evaluated;
            mcLumaBlock(pred, s.w, *s.ref, s.cx, s.cy, px * 4, py * 4, s.w,
                        s.h, static_cast<uint64_t>(Scratch::Pred));
            const int satd =
                satdBlock(*s.ctx->cur, s.cx, s.cy, pred, s.w, s.w, s.h,
                          static_cast<uint64_t>(Scratch::Pred))
                + s.mvCost(px, py);
            VT_SITE(site_cmp, MeTesaCmp);
            const bool better = satd < best_satd;
            trace::branch(site_cmp, better);
            if (better) {
                best_satd = satd;
                best_dx = px;
                best_dy = py;
            }
        }
    }
    s.bx = best_dx;
    s.by = best_dy;
}

/**
 * Sub-pel refinement: iterative 8-neighbor descent at half-pel then
 * quarter-pel step, SAD metric below subme 7, SATD at or above.
 */
void
subpelRefine(const MeContext& ctx, const Frame& ref, int cx, int cy, int w,
             int h, const Mv& pred_mv, Mv& mv, int& cost)
{
    if (ctx.subme == 0) {
        return;
    }
    const bool use_satd = ctx.subme >= 7;
    // Refinement depth grows with subme: more half-pel rounds at >= 3,
    // quarter-pel at >= 5, extra RD rounds at 8/9+, exhaustive-feeling
    // polish at 10+ (the x264 ladder's "slow" through "placebo" steps).
    const int half_rounds =
        ctx.subme >= 10 ? 4 : (ctx.subme >= 8 ? 3 : (ctx.subme >= 3 ? 2 : 1));
    const int quarter_rounds =
        ctx.subme >= 5 ? (ctx.subme >= 9 ? (ctx.subme >= 11 ? 3 : 2) : 1)
                       : 0;

    uint8_t pred[256];
    auto evalAt = [&](const Mv& cand, int bound) {
        ++ctx.candidates_evaluated;
        const int rate = (ctx.lambda_fp * mvdBits(cand, pred_mv)) >> 4;
        int dist;
        if (use_satd) {
            mcLumaBlock(pred, w, ref, cx, cy, cand.x, cand.y, w, h,
                        static_cast<uint64_t>(Scratch::Pred));
            dist = satdBlock(*ctx.cur, cx, cy, pred, w, w, h,
                             static_cast<uint64_t>(Scratch::Pred));
        } else {
            dist = sadSubpel(*ctx.cur, cx, cy, ref, cand.x, cand.y, w, h,
                             bound - rate);
        }
        return dist + rate;
    };

    auto round = [&](int step, int iterations) {
        for (int it = 0; it < iterations; ++it) {
            VT_SITE(site_iter, MeSubpelIter);
            trace::block(site_iter);
            const Mv center = mv;
            bool moved = false;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    if (dx == 0 && dy == 0) {
                        continue;
                    }
                    Mv cand{static_cast<int16_t>(center.x + dx * step),
                            static_cast<int16_t>(center.y + dy * step)};
                    const int c = evalAt(cand, cost);
                    VT_SITE(site_cmp, MeSubpelCmp);
                    const bool better = c < cost;
                    trace::branch(site_cmp, better);
                    if (better) {
                        cost = c;
                        mv = cand;
                        moved = true;
                    }
                }
            }
            if (!moved) {
                break;
            }
        }
    };

    // Re-anchor the cost in the chosen metric so comparisons are
    // consistent within the refinement.
    cost = evalAt(mv, INT32_MAX);
    round(2, half_rounds);
    if (quarter_rounds > 0) {
        round(1, quarter_rounds);
    }
}

} // namespace

MeResult
searchOneRef(const MeContext& ctx, int cx, int cy, int w, int h,
             const Mv& pred_mv, int ref_idx, int cost_bound)
{
    VT_ASSERT(ctx.cur && ctx.refs && ref_idx < static_cast<int>(
                  ctx.refs->size()),
              "invalid ME context");
    const Frame& ref = *(*ctx.refs)[ref_idx];

    Search s;
    // As in x264, the best cost found in earlier references bounds the
    // search in later ones: candidates that cannot beat it terminate
    // their SAD early, so extra references cost progressively less
    // compute while still touching fresh reference data.
    s.best_cost = cost_bound;
    s.ctx = &ctx;
    s.ref = &ref;
    s.cx = cx;
    s.cy = cy;
    s.w = w;
    s.h = h;
    s.pred_mv = pred_mv;

    // Seed candidates: the MV predictor (rounded to full-pel) and zero.
    VT_SITE(site_seed, MeSeed);
    trace::block(site_seed);
    s.tryCandidate(0, 0);
    const int px = (pred_mv.x + (pred_mv.x >= 0 ? 2 : -2)) / 4;
    const int py = (pred_mv.y + (pred_mv.y >= 0 ? 2 : -2)) / 4;
    if (px != 0 || py != 0) {
        s.bx = 0;
        s.by = 0;
        s.tryCandidate(px, py);
    }
    // Descend from wherever the seeds left the best.
    switch (ctx.method) {
      case MeMethod::Dia:
        searchDia(s);
        break;
      case MeMethod::Hex:
        searchHex(s);
        break;
      case MeMethod::Umh:
        searchUmh(s);
        break;
      case MeMethod::Esa:
        searchEsa(s);
        break;
      case MeMethod::Tesa:
        searchEsa(s);
        tesaRefine(s);
        break;
    }

    MeResult result;
    result.ref = ref_idx;
    result.mv = Mv{static_cast<int16_t>(s.bx * 4),
                   static_cast<int16_t>(s.by * 4)};
    result.cost = s.best_cost;
    result.sad = s.best_sad;

    // Sub-pel refinement is only worth doing for references that beat the
    // carried-over bound (x264 behaves the same way).
    if (result.cost >= cost_bound) {
        result.cost = INT32_MAX;
        return result;
    }
    subpelRefine(ctx, ref, cx, cy, w, h, pred_mv, result.mv, result.cost);

    // Reference-index signalling cost.
    result.cost += (ctx.lambda_fp * ueBits(ref_idx)) >> 4;
    return result;
}

MeResult
searchAllRefs(const MeContext& ctx, int cx, int cy, int w, int h,
              const Mv& pred_mv)
{
    MeResult best;
    const int nrefs = static_cast<int>(ctx.refs->size());
    for (int r = 0; r < nrefs; ++r) {
        VT_SITE(site_ref, MeRefloop);
        trace::block(site_ref);
        MeResult cand = searchOneRef(ctx, cx, cy, w, h, pred_mv, r,
                                     best.cost);
        VT_SITE(site_cmp, MeRefloopCmp);
        const bool better = cand.cost < best.cost;
        trace::branch(site_cmp, better);
        if (better) {
            best = cand;
        }
    }
    return best;
}

} // namespace vtrans::codec
