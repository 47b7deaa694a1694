#include "codec/trellis.h"

#include <algorithm>
#include <cstdlib>

#include "codec/mv.h"
#include "codec/pixel.h"
#include "codec/tables.h"
#include "trace/probe.h"

namespace vtrans::codec {

namespace {

/** A state whose cost reaches this has no path (never a real cost: one
 *  block's distortion and rate sum to far less). */
constexpr int64_t kInf = INT64_MAX / 4;

/**
 * Emits the probe events of one trellis position: the events of the
 * state-by-state scan the quantizer models, replayed over the costs the
 * position starts from. Per live run, in ascending order: one
 * TrellisState block, the TrellisCmp of its zero level (always taken:
 * nothing else reaches run + 1), then one TrellisCmp per non-zero
 * candidate against the running best for run 0.
 */
void
emitPosition(const int64_t cost[17], int pos, const int64_t run_rate[16],
             const int64_t level_term[3], int n_cands)
{
    VT_SITE(site_state, TrellisState);
    VT_SITE(site_cmp, TrellisCmp);
    int64_t best = kInf;
    for (int run = 0; run <= pos; ++run) {
        if (cost[run] >= kInf) {
            continue;
        }
        trace::block(site_state);
        trace::branch(site_cmp, true);
        const int64_t run_cost = cost[run] + run_rate[run];
        for (int k = 1; k < n_cands; ++k) {
            const int64_t level_cost = run_cost + level_term[k];
            const bool better = level_cost < best;
            trace::branch(site_cmp, better);
            best = better ? level_cost : best;
        }
    }
}

} // namespace

int
trellisQuantize4x4(int16_t coef[16], int qp, bool intra, int lambda_fp)
{
    VT_SITE(site, TrellisQuant4x4);
    trace::block(site);
    trace::load(static_cast<uint64_t>(Scratch::Coeff), 32);
    trace::store(static_cast<uint64_t>(Scratch::Coeff), 32);
    const bool tracing = trace::active();

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
    // The run half of a non-zero level's rate.
    int64_t run_rate[16];
    for (int run = 0; run < 16; ++run) {
        run_rate[run] = lambda_rate * ueBits(static_cast<uint32_t>(run));
    }

    // Path state per zigzag position: the run length of zeros since the
    // last non-zero level. Because rate only depends on the run, a single
    // best-cost entry per run value suffices. cost[run] = cheapest path
    // arriving at the current position with `run` zeros pending; a run
    // whose run-0 ancestor had no non-zero candidate is dead (>= kInf).
    // A zero level takes run to run + 1 and nothing else reaches run + 1
    // (run <= pos < 16), so only run 0 needs a back-pointer per
    // position: the run it came from and the level it chose.
    int64_t cost[17];
    std::fill(cost, cost + 17, kInf);
    cost[0] = 0;
    int8_t run0_from[16];
    int16_t run0_level[16];

    // The dead-zone-rounded level of each position. Past the last position
    // with a non-zero one, every path only extends its run by zeros, at
    // the same cost added to every state, so the cheapest state and its
    // path are already fixed there. The scan stops at that position
    // unless it is traced (the probe events cover all 16 positions).
    int base_levels[16];
    int end = 0;
    for (int pos = 0; pos < 16; ++pos) {
        const int raster = kZigzag4x4[pos];
        base_levels[pos] =
            (std::abs(static_cast<int>(coef[raster])) * mf_row[raster] + f)
            >> shift;
        end = base_levels[pos] > 0 ? pos + 1 : end;
    }
    if (tracing) {
        end = 16;
    }

    for (int pos = 0; pos < end; ++pos) {
        const int raster = kZigzag4x4[pos];
        const int c = coef[raster];
        const int v = v_row[raster] << (qp / 6);
        const int base_level = base_levels[pos];

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
        if (tracing) {
            emitPosition(cost, pos, run_rate, level_term, n_cands);
        }

        // Run 0: the cheapest (run, non-zero candidate) pair. Its cost
        // cost[run] + run_rate[run] + level_term[k] separates, so the
        // first pair in run-major order to reach the minimum is the
        // first run minimising the run half with the first candidate
        // minimising the level half. Dead runs never win: run `pos` is
        // always live (the all-zero path).
        int64_t run0_cost = kInf;
        if (n_cands > 1) {
            int best_run = 0;
            int64_t best_run_cost = cost[0] + run_rate[0];
            for (int run = 1; run <= pos; ++run) {
                const int64_t run_cost = cost[run] + run_rate[run];
                const bool better = run_cost < best_run_cost;
                best_run_cost = better ? run_cost : best_run_cost;
                best_run = better ? run : best_run;
            }
            const int best_k =
                n_cands > 2 && level_term[2] < level_term[1] ? 2 : 1;
            run0_cost = best_run_cost + level_term[best_k];
            run0_from[pos] = static_cast<int8_t>(best_run);
            run0_level[pos] = level[best_k];
        }

        // Level 0 everywhere: shift every run up by one.
        for (int run = pos; run >= 0; --run) {
            cost[run + 1] = cost[run] + level_term[0];
        }
        cost[0] = run0_cost;
    }

    // Choose the cheapest terminal state; trailing zeros cost nothing
    // extra in VX1 (the block's nonzero count is coded up front). The
    // positions past `end` add their zeros to its run. Then walk back
    // from the last position to the first: a run above 0 came from
    // run - 1 by a zero level, run 0 from its back-pointer.
    int run = 0;
    for (int r = 1; r <= end; ++r) {
        if (cost[r] < cost[run]) {
            run = r;
        }
    }
    run += 16 - end;
    int nonzero = 0;
    for (int pos = 15; pos >= 0; --pos) {
        if (run > 0) {
            coef[kZigzag4x4[pos]] = 0;
            --run;
        } else {
            coef[kZigzag4x4[pos]] = run0_level[pos];
            ++nonzero;
            run = run0_from[pos];
        }
    }
    return nonzero;
}

} // namespace vtrans::codec
