#include "codec/trellis.h"

#include <algorithm>
#include <cstdlib>

#include "codec/mv.h"
#include "codec/pixel.h"
#include "codec/tables.h"
#include "trace/probe.h"

namespace vtrans::codec {

namespace {

/** Bits to entropy-code a (run, level) pair in the VX1 residual format. */
inline int
runLevelBits(int run, int level)
{
    return ueBits(static_cast<uint32_t>(run))
           + seBits(static_cast<int32_t>(level));
}

} // namespace

int
trellisQuantize4x4(int16_t coef[16], int qp, bool intra, int lambda_fp)
{
    VT_SITE(site, TrellisQuant4x4);
    trace::block(site);
    trace::load(static_cast<uint64_t>(Scratch::Coeff), 32);
    trace::store(static_cast<uint64_t>(Scratch::Coeff), 32);

    const int shift = quantShift(qp);
    const int f = (1 << shift) / (intra ? 3 : 6);

    // Rate-distortion weight. Distortion below is measured in the
    // (4x-scaled) transform domain, which sits ~10x above pixel-domain
    // SSD for this transform's gains; the matching Lagrangian is the
    // SSD lambda (the *square* of the SAD lambda carried in lambda_fp,
    // which stores lambda*16). lambda_rate ~= lambda_sad^2 * 10.
    const int64_t lambda_rate =
        (static_cast<int64_t>(lambda_fp) * lambda_fp * 10) >> 8;

    // Path state per zigzag position: cumulative cost and the run length
    // of zeros since the last non-zero level. Because rate only depends on
    // the run, a single best-cost entry per run value suffices.
    struct PathState
    {
        int64_t cost = 0;
        int16_t levels[16] = {};
    };
    // states[run] = best path arriving at the current position with `run`
    // zeros pending. Run is capped at 15 (a 4x4 block).
    constexpr int64_t kInf = INT64_MAX / 4;
    PathState states[17];
    for (auto& s : states) {
        s.cost = kInf;
    }
    states[0].cost = 0;

    for (int pos = 0; pos < 16; ++pos) {
        const int raster = kZigzag4x4[pos];
        const int c = coef[raster];
        const int mf = quantMf(qp, raster);
        const int v = dequantV(qp, raster) << (qp / 6);
        const int abs_c = std::abs(c);
        const int base_level = (abs_c * mf + f) >> shift;

        // Candidate levels at this position: 0, base, base-1 (when > 0).
        int cands[3];
        int n_cands = 0;
        cands[n_cands++] = 0;
        if (base_level > 0) {
            cands[n_cands++] = base_level;
            if (base_level > 1) {
                cands[n_cands++] = base_level - 1;
            }
        }

        PathState next[17];
        for (auto& s : next) {
            s.cost = kInf;
        }

        for (int run = 0; run <= pos && run <= 16; ++run) {
            if (states[run].cost >= kInf) {
                continue;
            }
            VT_SITE(site_state, TrellisState);
            trace::block(site_state);
            for (int k = 0; k < n_cands; ++k) {
                const int level = cands[k];
                // Distortion in the transform domain (squared error of
                // the reconstructed coefficient), scaled down to keep the
                // magnitudes comparable with rate * lambda.
                // Dequantized coefficients sit at ~4x the forward-transform
                // scale (MF*V ~= 2^17), so compare against 4*c.
                const int64_t diff =
                    static_cast<int64_t>(c) * 4
                    - (c < 0 ? -static_cast<int64_t>(level) * v
                             : static_cast<int64_t>(level) * v);
                const int64_t dist = (diff * diff) >> 6;

                int64_t cost = states[run].cost + dist;
                int new_run;
                if (level == 0) {
                    new_run = std::min(run + 1, 16);
                } else {
                    cost += lambda_rate
                            * runLevelBits(run, c < 0 ? -level : level);
                    new_run = 0;
                }
                VT_SITE(site_cmp, TrellisCmp);
                const bool better = cost < next[new_run].cost;
                trace::branch(site_cmp, better);
                if (better) {
                    next[new_run] = states[run];
                    next[new_run].cost = cost;
                    next[new_run].levels[pos] = static_cast<int16_t>(
                        c < 0 ? -level : level);
                }
            }
        }
        for (int run = 0; run <= 16; ++run) {
            states[run] = next[run];
        }
    }

    // Choose the cheapest terminal state; trailing zeros cost nothing
    // extra in VX1 (the block's nonzero count is coded up front).
    const PathState* best = &states[0];
    for (int run = 1; run <= 16; ++run) {
        if (states[run].cost < best->cost) {
            best = &states[run];
        }
    }

    int nonzero = 0;
    for (int pos = 0; pos < 16; ++pos) {
        coef[kZigzag4x4[pos]] = best->levels[pos];
        if (best->levels[pos] != 0) {
            ++nonzero;
        }
    }
    return nonzero;
}

} // namespace vtrans::codec
