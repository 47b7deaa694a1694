/**
 * @file
 * Differential test of the trellis quantizer against a reference
 * implementation kept here as the oracle: the straightforward dynamic
 * program that carries a full copy of each path's levels in every state.
 * The shipped quantizer keeps one cost per run and a back-pointer for
 * run 0 only, and traces the winner back once; it must choose the same levels and emit
 * the same probe events (one TrellisState block per live state, one
 * TrellisCmp branch per candidate with the same outcome) on every input,
 * and choose the same levels again with no sink attached. The oracle
 * also counts the corner cases its inputs reach, so each suite asserts
 * that it exercises the case it is named for.
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

/** The corner cases the oracle's inputs reached, summed over calls. */
struct Coverage
{
    /** Positions with no non-zero candidate (run 0 dies there) after a
     *  position with one and before another. */
    int dead_run0 = 0;
    /** Run-0 compares that tied the running best from another run. */
    int run_ties = 0;
    /** Run-0 compares that tied another candidate of the same run. */
    int level_ties = 0;
};

Coverage g_coverage;

/** The path-copy trellis: the codec's quantizer before the back-pointer
 *  rewrite, verbatim in its decisions and its probe emission. Counts
 *  into g_coverage, which changes neither. */
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
    int base_levels[16];

    for (int pos = 0; pos < 16; ++pos) {
        const int raster = kZigzag4x4[pos];
        const int c = coef[raster];
        const int mf = quantMf(qp, raster);
        const int v = dequantV(qp, raster) << (qp / 6);
        const int abs_c = std::abs(c);
        const int base_level = (abs_c * mf + f) >> shift;
        base_levels[pos] = base_level;

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
        int run0_from = -1;

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
                if (new_run == 0 && cost == next[0].cost) {
                    ++(run0_from == run ? g_coverage.level_ties
                                        : g_coverage.run_ties);
                }
                if (better && new_run == 0) {
                    run0_from = run;
                }
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

    for (int pos = 1; pos < 15; ++pos) {
        if (base_levels[pos] == 0
            && std::any_of(base_levels, base_levels + pos,
                           [](int b) { return b > 0; })
            && std::any_of(base_levels + pos + 1, base_levels + 16,
                           [](int b) { return b > 0; })) {
            ++g_coverage.dead_run0;
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

/** Compares shipped vs oracle on one block, and the shipped quantizer
 *  with a sink against itself with none (its probe emission replays the
 *  costs only while a sink is attached); returns false on mismatch. */
bool
agrees(const int16_t coef[16], int qp, bool intra, int lambda_fp)
{
    const Outcome want =
        run(oracleTrellisQuantize4x4, coef, qp, intra, lambda_fp);
    const Outcome got =
        run(codec::trellisQuantize4x4, coef, qp, intra, lambda_fp);
    int16_t untraced[16];
    std::copy(coef, coef + 16, untraced);
    const int untraced_nonzero =
        codec::trellisQuantize4x4(untraced, qp, intra, lambda_fp);
    const bool same = std::equal(want.levels, want.levels + 16, got.levels)
                      && want.nonzero == got.nonzero
                      && want.events == got.events
                      && std::equal(got.levels, got.levels + 16, untraced)
                      && got.nonzero == untraced_nonzero;
    EXPECT_TRUE(same) << "qp " << qp << (intra ? " intra" : " inter")
                      << " lambda_fp " << lambda_fp << ": "
                      << got.events.size() << " events vs "
                      << want.events.size();
    return same;
}

/** The DCT'd 4x4 luma residuals of a clip's frame 1: each tile against
 *  the co-located tile of frame 0 (inter) and against mid-grey (intra),
 *  interleaved. */
std::vector<std::array<int16_t, 16>>
residualBlocks(const char* name, double seconds)
{
    video::VideoSpec spec = video::findVideo(name);
    spec.seconds = seconds;
    const auto frames = video::generateVideo(spec);
    EXPECT_GE(frames.size(), 2u);
    std::vector<std::array<int16_t, 16>> blocks;
    if (frames.size() < 2) {
        return blocks;
    }
    const video::Frame& cur = frames[1];
    const video::Frame& prev = frames[0];
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
    return blocks;
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
    const auto blocks = residualBlocks("cat", 0.1);
    ASSERT_FALSE(blocks.empty());
    for (int qp = 0; qp < codec::kQpCount; ++qp) {
        for (size_t b = 0; b < blocks.size(); b += 7) {
            const bool intra = (b & 1) != 0;
            if (!agrees(blocks[b].data(), qp, intra, codec::lambdaFp(qp))) {
                return;
            }
        }
    }
}

TEST(TrellisOracle, DeadRunZeroBetweenLevels)
{
    // Exact zeros between strong coefficients: a zero coefficient has no
    // non-zero candidate, so run 0 dies there and only the zero-run
    // states carry the paths to the next level.
    g_coverage = {};
    Rng rng(1019);
    for (int qp = 0; qp < codec::kQpCount; ++qp) {
        for (int trial = 0; trial < 40; ++trial) {
            const int strong = 64 << (trial % 6);
            int16_t coef[16];
            for (auto& c : coef) {
                c = rng.below(2) == 0
                        ? 0
                        : static_cast<int16_t>(rng.range(-strong, strong));
            }
            if (!agrees(coef, qp, (trial & 1) != 0, codec::lambdaFp(qp))) {
                return;
            }
        }
    }
    EXPECT_GT(g_coverage.dead_run0, 0);
}

TEST(TrellisOracle, ExactTiesAcrossRunsAndCandidates)
{
    // Small coefficients at fine quantizers, where the level terms round
    // to the same few values, under a zero rate weight (lambda_fp <= 5
    // gives lambda_rate 0, so equal distortions tie across runs) and
    // under the codec's own lambda (runs with equal ueBits tie).
    g_coverage = {};
    Rng rng(7);
    for (int qp = 0; qp < 18; ++qp) {
        for (int trial = 0; trial < 200; ++trial) {
            const int spread = 2 + trial % 24;
            int16_t coef[16];
            for (auto& c : coef) {
                c = static_cast<int16_t>(rng.range(-spread, spread));
            }
            const int lambda_fp = trial % 2 == 0
                                      ? static_cast<int>(rng.below(6))
                                      : codec::lambdaFp(qp);
            if (!agrees(coef, qp, (trial & 2) != 0, lambda_fp)) {
                return;
            }
        }
    }
    EXPECT_GT(g_coverage.run_ties, 0);
    EXPECT_GT(g_coverage.level_ties, 0);
}

TEST(TrellisOracle, MezzanineGradeCoefficients)
{
    // The mezzanine encodes at crf 10: real residuals of a low- and a
    // high-entropy clip and full-range random coefficients, at the
    // quantizers crf 10's frame-level adaptation reaches.
    g_coverage = {};
    std::vector<std::array<int16_t, 16>> blocks = residualBlocks("hall",
                                                                 0.1);
    const auto calm = residualBlocks("desktop", 0.1);
    blocks.insert(blocks.end(), calm.begin(), calm.end());
    ASSERT_FALSE(blocks.empty());
    Rng rng(10);
    for (int i = 0; i < 600; ++i) {
        std::array<int16_t, 16> coef;
        const int spread = 16 << (i % 8);
        for (auto& c : coef) {
            c = static_cast<int16_t>(rng.range(-spread, spread));
        }
        blocks.push_back(coef);
    }
    for (int qp = 4; qp <= 16; ++qp) {
        for (size_t b = 0; b < blocks.size(); ++b) {
            const bool intra = (b & 1) != 0;
            if (!agrees(blocks[b].data(), qp, intra, codec::lambdaFp(qp))) {
                return;
            }
        }
    }
    EXPECT_GT(g_coverage.dead_run0, 0);
}

} // namespace
} // namespace vtrans
