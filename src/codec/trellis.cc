#include "codec/trellis.h"

#include <algorithm>
#include <cstdlib>

#include "codec/mv.h"
#include "codec/pixel.h"
#include "codec/tables.h"
#include "trace/probe.h"

namespace vtrans::codec {

int
trellisQuantize4x4(int16_t coef[16], int qp, bool intra, int lambda_fp)
{
    VT_SITE(site, TrellisQuant4x4);
    trace::block(site);
    trace::load(static_cast<uint64_t>(Scratch::Coeff), 32);
    trace::store(static_cast<uint64_t>(Scratch::Coeff), 32);

    const int shift = quantShift(qp);
    const int f = (1 << shift) / (intra ? 3 : 6);
    const int32_t* mf_row = quantMfRow(qp);
    const int32_t* v_row = dequantVRow(qp);

    // Rate-distortion weight. Distortion below is measured in the
    // (4x-scaled) transform domain, which sits ~10x above pixel-domain
    // SSD for this transform's gains; the matching Lagrangian is the
    // SSD lambda (the *square* of the SAD lambda carried in lambda_fp,
    // which stores lambda*16). lambda_rate ~= lambda_sad^2 * 10.
    const int64_t lambda_rate =
        (static_cast<int64_t>(lambda_fp) * lambda_fp * 10) >> 8;

    // Path state per zigzag position: the run length of zeros since the
    // last non-zero level. Because rate only depends on the run, a single
    // best-cost entry per run value suffices. cost[run] = cheapest path
    // arriving at the current position with `run` zeros pending (run is
    // capped at 16, a whole 4x4 block); the path itself is recovered at
    // the end from one back-pointer per (position, run): the run it came
    // from and the level it chose.
    constexpr int64_t kInf = INT64_MAX / 4;
    int64_t cost[17];
    std::fill(cost, cost + 17, kInf);
    cost[0] = 0;
    int8_t from_run[16][17];
    int16_t chosen[16][17];
    VT_SITE(site_state, TrellisState);
    VT_SITE(site_cmp, TrellisCmp);

    for (int pos = 0; pos < 16; ++pos) {
        const int raster = kZigzag4x4[pos];
        const int c = coef[raster];
        const int v = v_row[raster] << (qp / 6);
        const int abs_c = std::abs(c);
        const int base_level = (abs_c * mf_row[raster] + f) >> shift;

        // Candidate levels at this position: 0, base, base-1 (when > 0),
        // signed like the coefficient. Distortion in the transform domain
        // (squared error of the reconstructed coefficient), scaled down to
        // keep the magnitudes comparable with rate * lambda. Dequantized
        // coefficients sit at ~4x the forward-transform scale
        // (MF*V ~= 2^17), so compare against 4*c. Neither depends on the
        // run, nor does the level half of the rate:
        // level_term[k] = distortion + lambda * level bits of candidate k.
        int16_t level[3];
        int64_t level_term[3];
        const int n_cands = base_level > 1 ? 3 : (base_level > 0 ? 2 : 1);
        for (int k = 0; k < n_cands; ++k) {
            const int magnitude = k == 0 ? 0 : base_level + 1 - k;
            const int signed_level = c < 0 ? -magnitude : magnitude;
            const int64_t diff = static_cast<int64_t>(c) * 4
                                 - static_cast<int64_t>(signed_level) * v;
            level[k] = static_cast<int16_t>(signed_level);
            level_term[k] = (diff * diff) >> 6;
            if (k > 0) {
                level_term[k] += lambda_rate * seBits(signed_level);
            }
        }

        // Level 0 moves run -> run + 1, and nothing else reaches run + 1
        // (run <= pos < 16); every non-zero level competes for run 0,
        // whose running best stays in registers.
        int64_t next[17];
        std::fill(next, next + 17, kInf);
        int64_t best_level_cost = kInf;
        int best_from = 0;
        int16_t best_level = 0;
        for (int run = 0; run <= pos && run <= 16; ++run) {
            if (cost[run] >= kInf) {
                continue;
            }
            trace::block(site_state);
            const int zero_run = std::min(run + 1, 16);
            const int64_t zero_cost = cost[run] + level_term[0];
            const bool zero_better = zero_cost < next[zero_run];
            trace::branch(site_cmp, zero_better);
            if (zero_better) {
                next[zero_run] = zero_cost;
                from_run[pos][zero_run] = static_cast<int8_t>(run);
                chosen[pos][zero_run] = 0;
            }
            // A non-zero level codes (run, level) and resets the run.
            const int64_t run_cost =
                cost[run] + lambda_rate * ueBits(static_cast<uint32_t>(run));
            for (int k = 1; k < n_cands; ++k) {
                const int64_t level_cost = run_cost + level_term[k];
                const bool better = level_cost < best_level_cost;
                trace::branch(site_cmp, better);
                best_level_cost = better ? level_cost : best_level_cost;
                best_from = better ? run : best_from;
                best_level = better ? level[k] : best_level;
            }
        }
        next[0] = best_level_cost;
        from_run[pos][0] = static_cast<int8_t>(best_from);
        chosen[pos][0] = best_level;
        std::copy(next, next + 17, cost);
    }

    // Choose the cheapest terminal state; trailing zeros cost nothing
    // extra in VX1 (the block's nonzero count is coded up front). Then
    // walk the back-pointers from the last position to the first.
    int run = 0;
    for (int r = 1; r <= 16; ++r) {
        if (cost[r] < cost[run]) {
            run = r;
        }
    }
    int nonzero = 0;
    for (int pos = 15; pos >= 0; --pos) {
        const int16_t lv = chosen[pos][run];
        coef[kZigzag4x4[pos]] = lv;
        nonzero += lv != 0 ? 1 : 0;
        run = from_run[pos][run];
    }
    return nonzero;
}

} // namespace vtrans::codec
