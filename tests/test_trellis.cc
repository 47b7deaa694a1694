/**
 * @file
 * Differential test of the trellis quantizer against a reference
 * implementation kept here as the oracle: the straightforward dynamic
 * program that carries a full copy of each path's levels in every state.
 * The shipped quantizer keeps one cost per run plus back-pointers and
 * traces the winner back once; it must choose the same levels and emit
 * the same probe events (one TrellisState block per live state, one
 * TrellisCmp branch per candidate with the same outcome) on every input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "codec/dct.h"
#include "codec/mv.h"
#include "codec/pixel.h"
#include "codec/tables.h"
#include "codec/trellis.h"
#include "common/rng.h"
#include "trace/probe.h"
#include "video/generate.h"
#include "video/vbench.h"

namespace vtrans {
namespace {

/** The path-copy trellis: the codec's quantizer before the back-pointer
 *  rewrite, verbatim in its decisions and its probe emission. */
int
oracleTrellisQuantize4x4(int16_t coef[16], int qp, bool intra,
                         int lambda_fp)
{
    using namespace codec;
    VT_SITE(site, TrellisQuant4x4);
    trace::block(site);
    trace::load(static_cast<uint64_t>(Scratch::Coeff), 32);
    trace::store(static_cast<uint64_t>(Scratch::Coeff), 32);

    const int shift = quantShift(qp);
    const int f = (1 << shift) / (intra ? 3 : 6);
    const int64_t lambda_rate =
        (static_cast<int64_t>(lambda_fp) * lambda_fp * 10) >> 8;

    struct PathState
    {
        int64_t cost = 0;
        int16_t levels[16] = {};
    };
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
                            * (ueBits(static_cast<uint32_t>(run))
                               + seBits(c < 0 ? -level : level));
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

/** Every probe record, in order, with the fields its kind defines. */
class RecordingSink : public trace::ProbeSink
{
  public:
    void
    onBatch(const trace::ProbeEvent* events, size_t count) override
    {
        for (size_t i = 0; i < count; ++i) {
            const trace::ProbeEvent& e = events[i];
            const bool memory = e.kind == trace::ProbeEvent::kLoad
                                || e.kind == trace::ProbeEvent::kStore;
            const bool branch = e.kind == trace::ProbeEvent::kBlockBranch;
            records.emplace_back(e.kind, e.aux, memory ? e.addr : 0,
                                 branch ? (e.flags & 1) : 0);
        }
    }

    void onBlock(const trace::CodeSite&) override {}
    void onBranch(const trace::CodeSite&, bool) override {}
    void onLoad(uint64_t, uint32_t) override {}
    void onStore(uint64_t, uint32_t) override {}

    std::vector<std::tuple<int, uint32_t, uint64_t, int>> records;
};

/** What one quantizer call chose and emitted. */
struct Outcome
{
    int16_t levels[16];
    int nonzero;
    std::vector<std::tuple<int, uint32_t, uint64_t, int>> events;
};

template <typename Quantizer>
Outcome
run(Quantizer quantize, const int16_t coef[16], int qp, bool intra,
    int lambda_fp)
{
    Outcome out;
    std::copy(coef, coef + 16, out.levels);
    RecordingSink sink;
    trace::setSink(&sink);
    out.nonzero = quantize(out.levels, qp, intra, lambda_fp);
    trace::setSink(nullptr);
    out.events = std::move(sink.records);
    return out;
}

/** Compares shipped vs oracle on one block; returns false on mismatch. */
bool
agrees(const int16_t coef[16], int qp, bool intra, int lambda_fp)
{
    const Outcome want =
        run(oracleTrellisQuantize4x4, coef, qp, intra, lambda_fp);
    const Outcome got =
        run(codec::trellisQuantize4x4, coef, qp, intra, lambda_fp);
    const bool same = std::equal(want.levels, want.levels + 16, got.levels)
                      && want.nonzero == got.nonzero
                      && want.events == got.events;
    EXPECT_TRUE(same) << "qp " << qp << (intra ? " intra" : " inter")
                      << " lambda_fp " << lambda_fp << ": "
                      << got.events.size() << " events vs "
                      << want.events.size();
    return same;
}

TEST(TrellisOracle, RandomCoefficientsEveryQp)
{
    Rng rng(2020);
    for (int qp = 0; qp < codec::kQpCount; ++qp) {
        for (int trial = 0; trial < 120; ++trial) {
            const bool intra = (trial & 1) != 0;
            // Magnitudes from near-zero to well past the level-1 dead
            // zone, so runs, ties between candidates and multi-level
            // choices all occur.
            const int spread = 4 << (trial % 11);
            int16_t coef[16];
            for (auto& c : coef) {
                c = static_cast<int16_t>(rng.range(-spread, spread));
                if (rng.below(3) == 0) {
                    c = 0;
                }
            }
            const int lambda_fp = trial % 5 == 0
                                      ? 1 + static_cast<int>(rng.below(4000))
                                      : codec::lambdaFp(qp);
            if (!agrees(coef, qp, intra, lambda_fp)) {
                return;
            }
        }
    }
}

TEST(TrellisOracle, RealDctBlocksEveryQp)
{
    // Residuals of a real clip: each 4x4 luma tile of frame 1 against the
    // co-located tile of frame 0, and against a flat mid-grey prediction.
    video::VideoSpec spec = video::findVideo("cat");
    spec.seconds = 0.1;
    const auto frames = video::generateVideo(spec);
    ASSERT_GE(frames.size(), 2u);
    const video::Frame& cur = frames[1];
    const video::Frame& prev = frames[0];
    std::vector<std::array<int16_t, 16>> blocks;
    for (int y = 0; y + 4 <= cur.height(); y += 4) {
        for (int x = 0; x + 4 <= cur.width(); x += 4) {
            std::array<int16_t, 16> inter;
            std::array<int16_t, 16> intra;
            for (int i = 0; i < 16; ++i) {
                const int px = cur.at(video::Plane::Y, x + i % 4, y + i / 4);
                inter[i] = static_cast<int16_t>(
                    px - prev.at(video::Plane::Y, x + i % 4, y + i / 4));
                intra[i] = static_cast<int16_t>(px - 128);
            }
            codec::forwardDct4x4(inter.data());
            codec::forwardDct4x4(intra.data());
            blocks.push_back(inter);
            blocks.push_back(intra);
        }
    }
    for (int qp = 0; qp < codec::kQpCount; ++qp) {
        for (size_t b = 0; b < blocks.size(); b += 7) {
            const bool intra = (b & 1) != 0;
            if (!agrees(blocks[b].data(), qp, intra, codec::lambdaFp(qp))) {
                return;
            }
        }
    }
}

} // namespace
} // namespace vtrans
