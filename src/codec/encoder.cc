#include "codec/encoder.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "codec/bitstream.h"
#include "codec/dct.h"
#include "codec/deblock.h"
#include "codec/intra.h"
#include "codec/lookahead.h"
#include "codec/me.h"
#include "codec/pixel.h"
#include "codec/syntax.h"
#include "codec/tables.h"
#include "codec/trellis.h"
#include "common/status.h"
#include "trace/probe.h"
#include "video/quality.h"

namespace vtrans::codec {

using video::Frame;
using video::Plane;

namespace {

/** Quantized residual of one macroblock: 16 luma + 2x4 chroma blocks. */
struct MbResidual
{
    int16_t luma[16][16] = {};
    int16_t chroma[2][4][16] = {};
    int cbp = 0;
    int total_nnz = 0;
};

/** Everything needed to emit and reconstruct one macroblock. */
struct MbCoding
{
    MbMode mode = MbMode::Intra16;
    BDir dir = BDir::Fwd;
    Mv mv0, mv1;
    int ref0 = 0;
    Mv mv8[4];
    int ref8[4] = {0, 0, 0, 0};
    Intra16Mode i16 = Intra16Mode::DC;
    Intra4Mode i4[16] = {};
    int qp = 26;
    MbResidual res;
};

/** Per-macroblock motion/mode state of the frame being coded. */
struct MbState
{
    Mv mv0, mv1;
    bool intra = true;
};

/** Luma variance of a 16x16 macroblock (adaptive quantization input). */
double
mbVariance(const Frame& f, int mx, int my)
{
    VT_SITE(site, EncMbvar);
    trace::block(site);
    int64_t sum = 0;
    int64_t sq = 0;
    for (int y = 0; y < 16; ++y) {
        trace::load(f.simAddr(Plane::Y, mx, my + y), 16);
        for (int x = 0; x < 16; ++x) {
            const int v = f.at(Plane::Y, mx + x, my + y);
            sum += v;
            sq += static_cast<int64_t>(v) * v;
        }
    }
    const double mean = sum / 256.0;
    return sq / 256.0 - mean * mean;
}

/**
 * The sequence encoder: owns the DPB, rate controller, bit writer, and
 * per-frame MB state for one encode() call.
 */
class SequenceEncoder
{
  public:
    SequenceEncoder(const EncoderParams& params, double fps, int width,
                    int height, int total_frames,
                    std::vector<PassStats> pass1)
        : params_(params),
          fps_(fps),
          w_(width),
          h_(height),
          mb_w_(width / 16),
          mb_h_(height / 16),
          rc_(params, fps, (width / 16) * (height / 16), total_frames,
              std::move(pass1))
    {
    }

    std::vector<uint8_t>
    run(const std::vector<Frame>& frames, EncodeStats* stats,
        std::vector<PassStats>* pass_out)
    {
        std::vector<FrameCosts> costs;
        const auto plan = planFrameTypes(frames, params_, &costs);
        const auto order = codedOrder(plan);

        writeSequenceHeader(static_cast<int>(frames.size()));

        EncodeStats local;
        for (const auto& pf : order) {
            const Frame& src = frames[pf.display_index];
            const uint64_t bits_before = bw_.bitCount();
            FrameType effective = pf.type;
            const double frame_psnr = encodeFrame(
                src, effective, pf.display_index,
                static_cast<double>(costs[pf.display_index].inter_cost));
            const uint64_t frame_bits = bw_.bitCount() - bits_before;
            rc_.endFrame(frame_bits);

            FrameStat fs;
            fs.display_index = pf.display_index;
            fs.type = effective;
            fs.qp = frame_qp_;
            fs.bits = frame_bits;
            fs.psnr = frame_psnr;
            local.frames.push_back(fs);
            switch (effective) {
              case FrameType::I:
                ++local.i_frames;
                break;
              case FrameType::P:
                ++local.p_frames;
                break;
              case FrameType::B:
                ++local.b_frames;
                break;
            }
            if (pass_out != nullptr) {
                PassStats ps;
                ps.type = pf.type;
                ps.qp = frame_qp_;
                ps.bits = frame_bits;
                ps.complexity =
                    static_cast<double>(costs[pf.display_index].inter_cost);
                pass_out->push_back(ps);
            }
        }

        const auto& bytes = bw_.finish();
        local.total_bits = bw_.bitCount();
        const double seconds = frames.size() / fps_;
        local.bitrate_kbps = local.total_bits / seconds / 1000.0;
        double psnr_sum = 0.0;
        for (const auto& fs : local.frames) {
            psnr_sum += fs.psnr;
        }
        local.psnr = psnr_sum / std::max<size_t>(1, local.frames.size());
        local.mb_skip = mb_skip_;
        local.mb_inter16 = mb_inter16_;
        local.mb_inter8x8 = mb_inter8x8_;
        local.mb_intra16 = mb_intra16_;
        local.mb_intra4 = mb_intra4_;
        local.me_candidates = me_candidates_;
        local.vbv_violations = rc_.vbvViolations();
        if (stats != nullptr) {
            *stats = local;
        }
        return bytes;
    }

  private:
    // ---- Stream-level syntax ------------------------------------------

    void
    writeSequenceHeader(int frame_count)
    {
        bw_.putBits(kMagic, 32);
        bw_.putUe(static_cast<uint32_t>(mb_w_));
        bw_.putUe(static_cast<uint32_t>(mb_h_));
        bw_.putUe(static_cast<uint32_t>(std::lround(fps_)));
        bw_.putUe(static_cast<uint32_t>(frame_count));
        bw_.putUe(params_.deblock ? 1 : 0);
        bw_.putSe(params_.deblock_alpha);
        bw_.putSe(params_.deblock_beta);
    }

    // ---- Reference list management ------------------------------------

    struct DpbEntry
    {
        int display = 0;
        std::unique_ptr<Frame> recon;
    };

    /** List-0 references for a frame at `display`: nearest past first. */
    std::vector<const Frame*>
    list0(int display) const
    {
        std::vector<const Frame*> refs;
        for (auto it = dpb_.rbegin(); it != dpb_.rend(); ++it) {
            if (it->display < display
                && static_cast<int>(refs.size()) < params_.refs) {
                refs.push_back(it->recon.get());
            }
        }
        return refs;
    }

    /** The single backward reference for a B frame (nearest future). */
    const Frame*
    list1(int display) const
    {
        for (const auto& e : dpb_) {
            if (e.display > display) {
                return e.recon.get();
            }
        }
        return nullptr;
    }

    // ---- Per-frame encode ----------------------------------------------

    double
    encodeFrame(const Frame& src, FrameType& type, int display,
                double complexity)
    {
        // Resolve the effective type from reference availability before
        // any header bit is written. The DPB is never flushed on I frames
        // (open-GOP): stale anchors age out of the trimmed DPB naturally,
        // and B frames played before a scene-cut I keep their past anchor.
        refs0_ = type != FrameType::I ? list0(display)
                                      : std::vector<const Frame*>{};
        ref1_ = type == FrameType::B ? list1(display) : nullptr;
        if (type == FrameType::B && ref1_ == nullptr) {
            // No backward anchor (can happen at sequence tail): demote.
            type = FrameType::P;
        }
        if (type != FrameType::I && refs0_.empty()) {
            type = FrameType::I; // nothing to predict from
            refs0_.clear();
        }

        frame_qp_ = rc_.startFrame(type, complexity);
        bw_.putUe(static_cast<uint32_t>(type));
        bw_.putUe(static_cast<uint32_t>(display));
        bw_.putUe(static_cast<uint32_t>(frame_qp_));
        bw_.putUe(static_cast<uint32_t>(refs0_.size()));

        auto recon = std::make_unique<Frame>(w_, h_);
        mb_state_.assign(static_cast<size_t>(mb_w_) * mb_h_, MbState{});
        qp_map_.assign(static_cast<size_t>(mb_w_) * mb_h_, frame_qp_);

        const uint64_t frame_start_bits = bw_.bitCount();
        for (int mby = 0; mby < mb_h_; ++mby) {
            for (int mbx = 0; mbx < mb_w_; ++mbx) {
                encodeMacroblock(src, *recon, type, mbx, mby,
                                 bw_.bitCount() - frame_start_bits);
            }
        }

        deblockFrame(*recon,
                     {params_.deblock, params_.deblock_alpha,
                      params_.deblock_beta},
                     qp_map_.data(), mb_w_, mb_h_);

        const double psnr = video::framePsnr(src, *recon);

        if (type != FrameType::B) {
            dpb_.push_back({display, std::move(recon)});
            std::sort(dpb_.begin(), dpb_.end(),
                      [](const DpbEntry& a, const DpbEntry& b) {
                          return a.display < b.display;
                      });
            // Keep refs past anchors plus one future anchor slot.
            while (static_cast<int>(dpb_.size()) > params_.refs + 1) {
                dpb_.erase(dpb_.begin());
            }
        }
        return psnr;
    }

    // ---- MV prediction --------------------------------------------------

    Mv
    predictMv(int mbx, int mby, int list) const
    {
        auto fetch = [&](int x, int y) -> Mv {
            if (x < 0 || y < 0 || x >= mb_w_) {
                return Mv{};
            }
            const MbState& st = mb_state_[y * mb_w_ + x];
            if (st.intra) {
                return Mv{};
            }
            return list == 0 ? st.mv0 : st.mv1;
        };
        const Mv left = fetch(mbx - 1, mby);
        const Mv top = fetch(mbx, mby - 1);
        const Mv topright = (mbx + 1 < mb_w_) ? fetch(mbx + 1, mby - 1)
                                              : fetch(mbx - 1, mby - 1);
        return medianMv(left, top, topright);
    }

    // ---- Residual helpers ----------------------------------------------

    /** Loads a residual 4x4 into `blk` from source minus prediction. */
    void
    residual4x4(const Frame& src, int px, int py, const uint8_t* pred,
                int pstride, int16_t blk[16])
    {
        VT_SITE(site, EncResidual4);
        trace::block(site);
        trace::store(static_cast<uint64_t>(Scratch::Residual), 32);
        for (int y = 0; y < 4; ++y) {
            trace::load(src.simAddr(Plane::Y, px, py + y), 4);
            for (int x = 0; x < 4; ++x) {
                blk[y * 4 + x] = static_cast<int16_t>(
                    static_cast<int>(src.at(Plane::Y, px + x, py + y))
                    - pred[y * pstride + x]);
            }
        }
    }

    /** Chroma flavor of residual4x4. */
    void
    residualChroma4x4(const Frame& src, Plane plane, int px, int py,
                      const uint8_t* pred, int pstride, int16_t blk[16])
    {
        VT_SITE(site, EncResidual4c);
        trace::block(site);
        trace::store(static_cast<uint64_t>(Scratch::Residual), 32);
        for (int y = 0; y < 4; ++y) {
            trace::load(src.simAddr(plane, px, py + y), 4);
            for (int x = 0; x < 4; ++x) {
                blk[y * 4 + x] = static_cast<int16_t>(
                    static_cast<int>(src.at(plane, px + x, py + y))
                    - pred[y * pstride + x]);
            }
        }
    }

    /** Transform + quantization with the configured trellis level. */
    int
    transformQuant(int16_t blk[16], int qp, bool intra)
    {
        forwardDct4x4(blk);
        if (params_.trellis >= 1) {
            return trellisQuantize4x4(blk, qp, intra, lambdaFp(qp));
        }
        return quantize4x4(blk, qp, intra);
    }

    /** Adds the reconstructed residual of `levels` onto pred -> recon. */
    void
    reconstruct4x4(Frame& recon, Plane plane, int px, int py,
                   const int16_t levels[16], int qp, const uint8_t* pred,
                   int pstride)
    {
        int16_t blk[16];
        std::copy(levels, levels + 16, blk);
        dequantize4x4(blk, qp);
        inverseDct4x4(blk);
        VT_SITE(site, EncRecon4);
        trace::block(site);
        for (int y = 0; y < 4; ++y) {
            trace::store(recon.simAddr(plane, px, py + y), 4);
            for (int x = 0; x < 4; ++x) {
                const int v = pred[y * pstride + x] + blk[y * 4 + x];
                recon.at(plane, px + x, py + y) =
                    static_cast<uint8_t>(std::clamp(v, 0, 255));
            }
        }
    }

    /** Copies prediction straight into recon (zero residual / skip). */
    void
    copyPred(Frame& recon, Plane plane, int px, int py, const uint8_t* pred,
             int pstride, int w, int h)
    {
        VT_SITE(site, EncCopypred);
        trace::block(site);
        for (int y = 0; y < h; ++y) {
            trace::store(recon.simAddr(plane, px, py + y), w);
            for (int x = 0; x < w; ++x) {
                recon.at(plane, px + x, py + y) = pred[y * pstride + x];
            }
        }
    }

    /**
     * Quantizes the full macroblock residual against a prediction.
     * The prediction buffers must already be motion-compensated/intra
     * predicted: predY 16x16 (stride 16), predCb/predCr 8x8 (stride 8).
     */
    void
    buildResidual(const Frame& src, int mx, int my, const uint8_t* predY,
                  const uint8_t* predCb, const uint8_t* predCr, int qp,
                  bool intra, MbResidual* out)
    {
        out->cbp = 0;
        out->total_nnz = 0;
        for (int b = 0; b < 16; ++b) {
            const int bx = (b & 3) * 4;
            const int by = (b >> 2) * 4;
            residual4x4(src, mx + bx, my + by, predY + by * 16 + bx, 16,
                        out->luma[b]);
            const int nnz = transformQuant(out->luma[b], qp, intra);
            if (nnz > 0) {
                out->cbp |= 1 << lumaCbpGroup(b);
                out->total_nnz += nnz;
            }
        }
        const int cqp = std::max(0, qp - 2); // chroma QP offset
        for (int c = 0; c < 2; ++c) {
            const Plane plane = c == 0 ? Plane::Cb : Plane::Cr;
            const uint8_t* pred = c == 0 ? predCb : predCr;
            for (int b = 0; b < 4; ++b) {
                const int bx = (b & 1) * 4;
                const int by = (b >> 1) * 4;
                residualChroma4x4(src, plane, mx / 2 + bx, my / 2 + by,
                                  pred + by * 8 + bx, 8,
                                  out->chroma[c][b]);
                const int nnz =
                    transformQuant(out->chroma[c][b], cqp, intra);
                if (nnz > 0) {
                    out->cbp |= 1 << (4 + c);
                    out->total_nnz += nnz;
                }
            }
        }
    }

    /** Writes one quantized 4x4 block as ue(nnz) + (run, level) pairs. */
    void
    writeBlock(const int16_t levels[16])
    {
        int nnz = 0;
        for (int i = 0; i < 16; ++i) {
            nnz += levels[i] != 0 ? 1 : 0;
        }
        if (trace::active()) {
            // The per-coefficient significance test in scan order: the
            // branchy, data-dependent heart of entropy coding.
            VT_SITE(site_sig, EntropySig);
            for (int i = 0; i < 16; ++i) {
                trace::branch(site_sig, levels[kZigzag4x4[i]] != 0);
            }
        }
        bw_.putUe(static_cast<uint32_t>(nnz));
        int run = 0;
        for (int i = 0; i < 16 && nnz > 0; ++i) {
            const int16_t level = levels[kZigzag4x4[i]];
            if (level == 0) {
                ++run;
            } else {
                bw_.putUe(static_cast<uint32_t>(run));
                bw_.putSe(level);
                run = 0;
                --nnz;
            }
        }
    }

    /** Writes the residual section (cbp already written). */
    void
    writeResidual(const MbResidual& res)
    {
        for (int g = 0; g < 4; ++g) {
            if ((res.cbp >> g) & 1) {
                for (int i = 0; i < 4; ++i) {
                    writeBlock(res.luma[lumaBlockInGroup(g, i)]);
                }
            }
        }
        for (int c = 0; c < 2; ++c) {
            if ((res.cbp >> (4 + c)) & 1) {
                for (int b = 0; b < 4; ++b) {
                    writeBlock(res.chroma[c][b]);
                }
            }
        }
    }

    /** Reconstructs the macroblock from prediction + quantized residual. */
    void
    reconstructMb(Frame& recon, int mx, int my, const uint8_t* predY,
                  const uint8_t* predCb, const uint8_t* predCr, int qp,
                  const MbResidual& res)
    {
        for (int b = 0; b < 16; ++b) {
            const int bx = (b & 3) * 4;
            const int by = (b >> 2) * 4;
            if ((res.cbp >> lumaCbpGroup(b)) & 1) {
                reconstruct4x4(recon, Plane::Y, mx + bx, my + by,
                               res.luma[b], qp, predY + by * 16 + bx, 16);
            } else {
                copyPred(recon, Plane::Y, mx + bx, my + by,
                         predY + by * 16 + bx, 16, 4, 4);
            }
        }
        const int cqp = std::max(0, qp - 2);
        for (int c = 0; c < 2; ++c) {
            const Plane plane = c == 0 ? Plane::Cb : Plane::Cr;
            const uint8_t* pred = c == 0 ? predCb : predCr;
            for (int b = 0; b < 4; ++b) {
                const int bx = (b & 1) * 4;
                const int by = (b >> 1) * 4;
                if ((res.cbp >> (4 + c)) & 1) {
                    reconstruct4x4(recon, plane, mx / 2 + bx, my / 2 + by,
                                   res.chroma[c][b], cqp,
                                   pred + by * 8 + bx, 8);
                } else {
                    copyPred(recon, plane, mx / 2 + bx, my / 2 + by,
                             pred + by * 8 + bx, 8, 4, 4);
                }
            }
        }
    }

    // ---- Prediction builders --------------------------------------------

    /** Motion-compensates the full MB prediction for an inter decision. */
    void
    interPredict(const MbCoding& mc, int mx, int my, uint8_t* predY,
                 uint8_t* predCb, uint8_t* predCr)
    {
        auto mcInto = [&](const Frame& ref, const Mv& mv, uint8_t* py,
                          uint8_t* pcb, uint8_t* pcr, Scratch base) {
            mcLumaBlock(py, 16, ref, mx, my, mv.x, mv.y, 16, 16,
                        static_cast<uint64_t>(base));
            mcChromaBlock(pcb, 8, ref, Plane::Cb, mx / 2, my / 2, mv.x,
                          mv.y, 8, 8, static_cast<uint64_t>(base) + 256);
            mcChromaBlock(pcr, 8, ref, Plane::Cr, mx / 2, my / 2, mv.x,
                          mv.y, 8, 8, static_cast<uint64_t>(base) + 320);
        };

        if (mc.mode == MbMode::Inter8x8) {
            for (int p = 0; p < 4; ++p) {
                const int ox = (p & 1) * 8;
                const int oy = (p >> 1) * 8;
                const Frame& ref = *refs0_[mc.ref8[p]];
                mcLumaBlock(predY + oy * 16 + ox, 16, ref, mx + ox, my + oy,
                            mc.mv8[p].x, mc.mv8[p].y, 8, 8,
                            static_cast<uint64_t>(Scratch::Pred) + oy * 16
                                + ox);
                mcChromaBlock(predCb + (oy / 2) * 8 + ox / 2, 8, ref,
                              Plane::Cb, mx / 2 + ox / 2, my / 2 + oy / 2,
                              mc.mv8[p].x, mc.mv8[p].y, 4, 4,
                              static_cast<uint64_t>(Scratch::Pred) + 256);
                mcChromaBlock(predCr + (oy / 2) * 8 + ox / 2, 8, ref,
                              Plane::Cr, mx / 2 + ox / 2, my / 2 + oy / 2,
                              mc.mv8[p].x, mc.mv8[p].y, 4, 4,
                              static_cast<uint64_t>(Scratch::Pred) + 320);
            }
            return;
        }

        if (mc.dir == BDir::Fwd || ref1_ == nullptr) {
            mcInto(*refs0_[mc.ref0], mc.mv0, predY, predCb, predCr,
                   Scratch::Pred);
        } else if (mc.dir == BDir::Bwd) {
            mcInto(*ref1_, mc.mv1, predY, predCb, predCr, Scratch::Pred);
        } else {
            uint8_t fy[256], fcb[64], fcr[64];
            uint8_t by[256], bcb[64], bcr[64];
            mcInto(*refs0_[mc.ref0], mc.mv0, fy, fcb, fcr, Scratch::Pred);
            mcInto(*ref1_, mc.mv1, by, bcb, bcr, Scratch::Pred2);
            averageBlocks(predY, fy, by, 256,
                          static_cast<uint64_t>(Scratch::Pred));
            averageBlocks(predCb, fcb, bcb, 64,
                          static_cast<uint64_t>(Scratch::Pred) + 256);
            averageBlocks(predCr, fcr, bcr, 64,
                          static_cast<uint64_t>(Scratch::Pred) + 320);
        }
    }

    // ---- Macroblock encode ----------------------------------------------

    void
    encodeMacroblock(const Frame& src, Frame& recon, FrameType type,
                     int mbx, int mby, uint64_t bits_so_far)
    {
        cur_mbx_ = mbx;
        cur_mby_ = mby;
        const int mx = mbx * 16;
        const int my = mby * 16;
        const int mb_index = mby * mb_w_ + mbx;
        const double variance = mbVariance(src, mx, my);
        const int qp = rc_.mbQp(mb_index, bits_so_far, variance);
        const int lambda = lambdaFp(qp);
        const bool use_satd = params_.subme >= 7;

        MbCoding mc;
        mc.qp = qp;

        const bool is_inter_frame = type != FrameType::I && !refs0_.empty();

        // --- Mode decision -------------------------------------------
        int best_cost = INT32_MAX;

        // Intra 16x16 (always a candidate).
        {
            int cost = 0;
            const Intra16Mode mode = chooseIntra16(
                src, recon, mx, my, use_satd, lambda, &cost);
            cost += (lambda * 4) >> 4; // mode signalling
            mc.mode = MbMode::Intra16;
            mc.i16 = mode;
            best_cost = cost;
        }

        // Intra 4x4 (estimated against source-neighbor proxies; the final
        // coding pass re-chooses modes against true reconstruction). At
        // subme >= 8 (the "slow"+ analysis depth) the estimate is always
        // completed instead of early-bailing against the running best —
        // the RD-refinement flavour of x264's deeper mode decision.
        if (params_.partitions.i4x4 || params_.partitions.i8x8) {
            const bool full_eval = params_.subme >= 8;
            int cost = (lambda * (5 + 16 * 3)) >> 4;
            for (int b = 0; b < 16 && (full_eval || cost < best_cost);
                 ++b) {
                int bc = 0;
                chooseIntra4(src, src, mx + (b & 3) * 4, my + (b >> 2) * 4,
                             use_satd, lambda, &bc);
                cost += bc;
            }
            VT_SITE(site_i4, EncModeI4cmp);
            const bool better = cost < best_cost;
            trace::branch(site_i4, better);
            if (better) {
                best_cost = cost;
                mc.mode = MbMode::Intra4;
            }
        }

        MeContext ctx;
        if (is_inter_frame) {
            ctx.cur = &src;
            ctx.refs = &refs0_;
            ctx.method = params_.me;
            ctx.merange = params_.merange;
            ctx.subme = params_.subme;
            ctx.lambda_fp = lambda;

            const Mv pred0 = predictMv(mbx, mby, 0);

            // Inter 16x16 forward.
            MeResult fwd = searchAllRefs(ctx, mx, my, 16, 16, pred0);
            {
                const int cost = fwd.cost + ((lambda * 1) >> 4);
                VT_SITE(site_cmp, EncModeFwdcmp);
                const bool better = cost < best_cost;
                trace::branch(site_cmp, better);
                if (better) {
                    best_cost = cost;
                    mc.mode = MbMode::Inter16;
                    mc.dir = BDir::Fwd;
                    mc.mv0 = fwd.mv;
                    mc.ref0 = fwd.ref;
                }
            }

            // B-frame directions.
            if (type == FrameType::B && ref1_ != nullptr) {
                const Mv pred1 = predictMv(mbx, mby, 1);
                std::vector<const Frame*> bwd_list{ref1_};
                MeContext bctx = ctx;
                bctx.refs = &bwd_list;
                MeResult bwd = searchOneRef(bctx, mx, my, 16, 16, pred1, 0);
                me_candidates_ += bctx.candidates_evaluated;
                {
                    const int cost = bwd.cost + ((lambda * 2) >> 4);
                    VT_SITE(site_cmp, EncModeBwdcmp);
                    const bool better = cost < best_cost;
                    trace::branch(site_cmp, better);
                    if (better) {
                        best_cost = cost;
                        mc.mode = MbMode::Inter16;
                        mc.dir = BDir::Bwd;
                        mc.mv1 = bwd.mv;
                    }
                }
                // Bi-directional: average the two best single predictions.
                {
                    uint8_t fy[256], by2[256], avg[256];
                    mcLumaBlock(fy, 16, *refs0_[fwd.ref], mx, my, fwd.mv.x,
                                fwd.mv.y, 16, 16,
                                static_cast<uint64_t>(Scratch::Pred));
                    mcLumaBlock(by2, 16, *ref1_, mx, my, bwd.mv.x, bwd.mv.y,
                                16, 16,
                                static_cast<uint64_t>(Scratch::Pred2));
                    averageBlocks(avg, fy, by2, 256,
                                  static_cast<uint64_t>(Scratch::Pred));
                    const int dist = use_satd
                                         ? satdBlock(src, mx, my, avg, 16,
                                                     16, 16,
                                                     static_cast<uint64_t>(
                                                         Scratch::Pred))
                                         : [&] {
                                               int s = 0;
                                               for (int i = 0; i < 256; ++i) {
                                                   const int x = i & 15;
                                                   const int y = i >> 4;
                                                   s += std::abs(
                                                       static_cast<int>(
                                                           src.at(Plane::Y,
                                                                  mx + x,
                                                                  my + y))
                                                       - avg[i]);
                                               }
                                               return s;
                                           }();
                    const int rate = mvdBits(fwd.mv, pred0)
                                     + mvdBits(bwd.mv, pred1)
                                     + ueBits(fwd.ref) + 2;
                    const int cost = dist + ((lambda * rate) >> 4);
                    VT_SITE(site_cmp, EncModeBicmp);
                    const bool better = cost < best_cost;
                    trace::branch(site_cmp, better);
                    if (better) {
                        best_cost = cost;
                        mc.mode = MbMode::Inter16;
                        mc.dir = BDir::Bi;
                        mc.mv0 = fwd.mv;
                        mc.ref0 = fwd.ref;
                        mc.mv1 = bwd.mv;
                    }
                }
            }

            // Inter 8x8 partitions (P frames).
            if (type == FrameType::P && params_.partitions.p8x8) {
                MeContext sctx = ctx;
                sctx.merange = std::max(4, params_.merange / 2);
                int total = (lambda * 3) >> 4;
                MbCoding cand;
                for (int p = 0; p < 4 && total < best_cost; ++p) {
                    const int ox = (p & 1) * 8;
                    const int oy = (p >> 1) * 8;
                    MeResult r = searchAllRefs(sctx, mx + ox, my + oy, 8, 8,
                                               mc.mode == MbMode::Inter16
                                                   ? mc.mv0
                                                   : pred0);
                    cand.mv8[p] = r.mv;
                    cand.ref8[p] = r.ref;
                    total += r.cost;
                }
                me_candidates_ += sctx.candidates_evaluated;
                VT_SITE(site_cmp, EncModeP8cmp);
                const bool better = total < best_cost;
                trace::branch(site_cmp, better);
                if (better) {
                    best_cost = total;
                    mc.mode = MbMode::Inter8x8;
                    std::copy(cand.mv8, cand.mv8 + 4, mc.mv8);
                    std::copy(cand.ref8, cand.ref8 + 4, mc.ref8);
                }
            }

            me_candidates_ += ctx.candidates_evaluated;
        }

        // --- Final coding of the chosen mode --------------------------
        uint8_t predY[256];
        uint8_t predCb[64];
        uint8_t predCr[64];

        if (mc.mode == MbMode::Intra4) {
            codeIntra4Mb(src, recon, type, mbx, mby, qp, mc);
            return;
        }

        if (mc.mode == MbMode::Intra16) {
            predictIntra16(recon, mx, my, mc.i16, predY);
            predictChromaDc(recon, Plane::Cb, mx / 2, my / 2, predCb);
            predictChromaDc(recon, Plane::Cr, mx / 2, my / 2, predCr);
            buildResidual(src, mx, my, predY, predCb, predCr, qp, true,
                          &mc.res);
            writeMbHeader(type, mc);
            writeResidual(mc.res);
            reconstructMb(recon, mx, my, predY, predCb, predCr, qp, mc.res);
            mb_state_[mb_index] = {Mv{}, Mv{}, true};
            qp_map_[mb_index] = qp;
            ++mb_intra16_;
            return;
        }

        // Inter path.
        interPredict(mc, mx, my, predY, predCb, predCr);
        buildResidual(src, mx, my, predY, predCb, predCr, qp, false,
                      &mc.res);

        // Skip conversion: a costless MB collapses to Skip/Direct.
        const Mv pred0 = predictMv(mbx, mby, 0);
        const Mv pred1 = predictMv(mbx, mby, 1);
        bool skip = false;
        if (mc.res.cbp == 0 && mc.mode == MbMode::Inter16) {
            if (type == FrameType::P) {
                skip = mc.ref0 == 0 && mc.mv0 == pred0;
            } else {
                skip = mc.dir == BDir::Bi && mc.ref0 == 0
                       && mc.mv0 == pred0 && mc.mv1 == pred1;
            }
        }
        VT_SITE(site_skip, EncModeSkip);
        trace::branch(site_skip, skip);
        if (skip) {
            mc.mode = MbMode::Skip;
            bw_.putUe(0);
            ++mb_skip_;
            // Skip MBs code no qp_delta: the decoder assumes the frame QP
            // for deblocking, so the encoder must do the same.
            mc.qp = frame_qp_;
        } else {
            writeMbHeader(type, mc);
            writeResidual(mc.res);
            if (mc.mode == MbMode::Inter16) {
                ++mb_inter16_;
            } else {
                ++mb_inter8x8_;
            }
        }
        reconstructMb(recon, mx, my, predY, predCb, predCr, mc.qp, mc.res);

        MbState st;
        st.intra = false;
        st.mv0 = mc.mode == MbMode::Inter8x8 ? mc.mv8[0] : mc.mv0;
        st.mv1 = mc.mv1;
        mb_state_[mb_index] = st;
        qp_map_[mb_index] = mc.qp;
    }

    /** Writes the macroblock header (mode, MVs, intra modes, qp, cbp). */
    void
    writeMbHeader(FrameType type, const MbCoding& mc)
    {
        VT_SITE(site, EncWritembheader);
        trace::block(site);

        if (type == FrameType::I) {
            bw_.putUe(mc.mode == MbMode::Intra16 ? 0u : 1u);
        } else {
            bw_.putUe(static_cast<uint32_t>(mc.mode));
            if (mc.mode == MbMode::Inter16 || mc.mode == MbMode::Inter8x8) {
                if (type == FrameType::B) {
                    bw_.putUe(static_cast<uint32_t>(mc.dir));
                }
            }
        }

        const Mv pred0 = predictMv(cur_mbx_, cur_mby_, 0);
        const Mv pred1 = predictMv(cur_mbx_, cur_mby_, 1);

        switch (mc.mode) {
          case MbMode::Inter16: {
            if (type != FrameType::B || mc.dir == BDir::Fwd
                || mc.dir == BDir::Bi) {
                bw_.putUe(static_cast<uint32_t>(mc.ref0));
                bw_.putSe(mc.mv0.x - pred0.x);
                bw_.putSe(mc.mv0.y - pred0.y);
            }
            if (type == FrameType::B
                && (mc.dir == BDir::Bwd || mc.dir == BDir::Bi)) {
                bw_.putSe(mc.mv1.x - pred1.x);
                bw_.putSe(mc.mv1.y - pred1.y);
            }
            break;
          }
          case MbMode::Inter8x8: {
            for (int p = 0; p < 4; ++p) {
                bw_.putUe(static_cast<uint32_t>(mc.ref8[p]));
                bw_.putSe(mc.mv8[p].x - pred0.x);
                bw_.putSe(mc.mv8[p].y - pred0.y);
            }
            break;
          }
          case MbMode::Intra16: {
            bw_.putUe(static_cast<uint32_t>(mc.i16));
            break;
          }
          case MbMode::Intra4: {
            for (int b = 0; b < 16; ++b) {
                bw_.putUe(static_cast<uint32_t>(mc.i4[b]));
            }
            break;
          }
          case MbMode::Skip:
            return;
        }

        bw_.putSe(mc.qp - frame_qp_);
        bw_.putUe(static_cast<uint32_t>(mc.res.cbp));
    }

    /** Intra-4x4 macroblocks code block-by-block against live recon. */
    void
    codeIntra4Mb(const Frame& src, Frame& recon, FrameType type, int mbx,
                 int mby, int qp, MbCoding& mc)
    {
        const int mx = mbx * 16;
        const int my = mby * 16;
        const int lambda = lambdaFp(qp);
        const bool use_satd = params_.subme >= 7;

        // Phase 1: per-block mode choice + residual, writing recon as we
        // go so later blocks predict from true neighbors.
        uint8_t pred[16];
        for (int b = 0; b < 16; ++b) {
            const int px = mx + (b & 3) * 4;
            const int py = my + (b >> 2) * 4;
            int cost = 0;
            mc.i4[b] = chooseIntra4(src, recon, px, py, use_satd, lambda,
                                    &cost);
            predictIntra4(recon, px, py, mc.i4[b], pred);
            residual4x4(src, px, py, pred, 4, mc.res.luma[b]);
            const int nnz = transformQuant(mc.res.luma[b], qp, true);
            if (nnz > 0) {
                mc.res.cbp |= 1 << lumaCbpGroup(b);
                mc.res.total_nnz += nnz;
            }
            // Reconstruct immediately (prediction stride is 4 here).
            if (nnz > 0) {
                reconstruct4x4(recon, Plane::Y, px, py, mc.res.luma[b], qp,
                               pred, 4);
            } else {
                copyPred(recon, Plane::Y, px, py, pred, 4, 4, 4);
            }
        }

        // Chroma: DC prediction as in Intra16.
        uint8_t predCb[64];
        uint8_t predCr[64];
        predictChromaDc(recon, Plane::Cb, mx / 2, my / 2, predCb);
        predictChromaDc(recon, Plane::Cr, mx / 2, my / 2, predCr);
        const int cqp = std::max(0, qp - 2);
        for (int c = 0; c < 2; ++c) {
            const Plane plane = c == 0 ? Plane::Cb : Plane::Cr;
            const uint8_t* cpred = c == 0 ? predCb : predCr;
            for (int b = 0; b < 4; ++b) {
                const int bx = (b & 1) * 4;
                const int by = (b >> 1) * 4;
                residualChroma4x4(src, plane, mx / 2 + bx, my / 2 + by,
                                  cpred + by * 8 + bx, 8,
                                  mc.res.chroma[c][b]);
                const int nnz =
                    transformQuant(mc.res.chroma[c][b], cqp, true);
                if (nnz > 0) {
                    mc.res.cbp |= 1 << (4 + c);
                }
            }
            for (int b = 0; b < 4; ++b) {
                const int bx = (b & 1) * 4;
                const int by = (b >> 1) * 4;
                if ((mc.res.cbp >> (4 + c)) & 1) {
                    reconstruct4x4(recon, plane, mx / 2 + bx, my / 2 + by,
                                   mc.res.chroma[c][b], cqp,
                                   cpred + by * 8 + bx, 8);
                } else {
                    copyPred(recon, plane, mx / 2 + bx, my / 2 + by,
                             cpred + by * 8 + bx, 8, 4, 4);
                }
            }
        }

        // Phase 2: emit syntax.
        writeMbHeader(type, mc);
        writeResidual(mc.res);

        const int mb_index = mby * mb_w_ + mbx;
        mb_state_[mb_index] = {Mv{}, Mv{}, true};
        qp_map_[mb_index] = qp;
        ++mb_intra4_;
    }

    // ---- Members ---------------------------------------------------------

    EncoderParams params_;
    double fps_;
    int w_;
    int h_;
    int mb_w_;
    int mb_h_;
    RateController rc_;
    BitWriter bw_;
    std::vector<DpbEntry> dpb_;
    std::vector<const Frame*> refs0_;
    const Frame* ref1_ = nullptr;
    std::vector<MbState> mb_state_;
    std::vector<int> qp_map_;
    int frame_qp_ = 26;
    int cur_mbx_ = 0;
    int cur_mby_ = 0;

    uint64_t mb_skip_ = 0;
    uint64_t mb_inter16_ = 0;
    uint64_t mb_inter8x8_ = 0;
    uint64_t mb_intra16_ = 0;
    uint64_t mb_intra4_ = 0;
    uint64_t me_candidates_ = 0;
};

} // namespace

Encoder::Encoder(const EncoderParams& params, double fps)
    : params_(params), fps_(fps)
{
    params_.validate();
    VT_ASSERT(fps > 0.0, "fps must be positive");
}

std::vector<uint8_t>
Encoder::encode(const std::vector<Frame>& frames, EncodeStats* stats)
{
    VT_ASSERT(!frames.empty(), "cannot encode an empty sequence");
    const int w = frames[0].width();
    const int h = frames[0].height();

    std::vector<PassStats> pass1;
    if (params_.rc == RateControl::TwoPass) {
        // Fast first pass, as x264 does: cheap analysis, ABR control.
        EncoderParams p1 = params_;
        p1.rc = RateControl::ABR;
        p1.me = MeMethod::Dia;
        p1.subme = std::min(p1.subme, 2);
        p1.trellis = 0;
        p1.partitions.p8x8 = false;
        SequenceEncoder pass1_enc(p1, fps_, w, h,
                                  static_cast<int>(frames.size()), {});
        std::vector<PassStats> collected;
        pass1_enc.run(frames, nullptr, &collected);
        pass1 = std::move(collected);
    }

    SequenceEncoder enc(params_, fps_, w, h,
                        static_cast<int>(frames.size()), std::move(pass1));
    return enc.run(frames, stats, nullptr);
}

} // namespace vtrans::codec
