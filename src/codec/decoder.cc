#include "codec/decoder.h"

#include <algorithm>
#include <memory>

#include "codec/bitstream.h"
#include "codec/dct.h"
#include "codec/deblock.h"
#include "codec/intra.h"
#include "codec/mv.h"
#include "codec/params.h"
#include "codec/pixel.h"
#include "codec/syntax.h"
#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

using video::Frame;
using video::Plane;

namespace {

class StreamDecoder
{
  public:
    explicit StreamDecoder(const std::vector<uint8_t>& bytes)
        : br_(bytes), in_(br_)
    {
    }

    DecodeResult
    run()
    {
        SequenceHeader seq;
        syntax::sequenceHeader(in_, seq);
        mb_w_ = seq.mb_w;
        mb_h_ = seq.mb_h;
        deblock_ = {seq.deblock_flag != 0, seq.alpha_offset,
                    seq.beta_offset};
        DecodeResult out;
        out.fps = seq.fps;
        out.width = mb_w_ * 16;
        out.height = mb_h_ * 16;

        std::vector<std::pair<int, std::unique_ptr<Frame>>> decoded;
        for (int i = 0; i < seq.frame_count; ++i) {
            auto [display, frame] = decodeFrame(out.width, out.height);
            decoded.emplace_back(display, std::move(frame));
        }
        std::sort(decoded.begin(), decoded.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        for (auto& [display, frame] : decoded) {
            out.frames.push_back(std::move(*frame));
        }
        return out;
    }

  private:
    // ---- Reference lists (mirrors the encoder) -------------------------

    struct DpbEntry
    {
        int display = 0;
        std::shared_ptr<Frame> recon;
    };

    std::vector<const Frame*>
    list0(int display, int count) const
    {
        std::vector<const Frame*> refs;
        for (auto it = dpb_.rbegin(); it != dpb_.rend(); ++it) {
            if (it->display < display
                && static_cast<int>(refs.size()) < count) {
                refs.push_back(it->recon.get());
            }
        }
        return refs;
    }

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

    // ---- Frame decode ----------------------------------------------------

    std::pair<int, std::unique_ptr<Frame>>
    decodeFrame(int width, int height)
    {
        FrameHeader fh;
        syntax::frameHeader(in_, fh);
        refs0_ = list0(fh.display, fh.num_ref_active);
        ref1_ = fh.type == FrameType::B ? list1(fh.display) : nullptr;
        VT_ASSERT(static_cast<int>(refs0_.size()) == fh.num_ref_active,
                  "reference list drift: stream says ", fh.num_ref_active,
                  " refs, DPB has ", refs0_.size());

        auto recon = std::make_unique<Frame>(width, height);
        mb_state_.assign(static_cast<size_t>(mb_w_) * mb_h_, MbMotion{});
        qp_map_.assign(static_cast<size_t>(mb_w_) * mb_h_, fh.qp_base);

        for (int mby = 0; mby < mb_h_; ++mby) {
            for (int mbx = 0; mbx < mb_w_; ++mbx) {
                decodeMacroblock(*recon, fh, mbx, mby);
            }
        }

        deblockFrame(*recon, deblock_, qp_map_.data(), mb_w_, mb_h_);

        if (fh.type != FrameType::B) {
            auto shared = std::make_shared<Frame>(width, height);
            shared->copyFrom(*recon);
            dpb_.push_back({fh.display, shared});
            std::sort(dpb_.begin(), dpb_.end(),
                      [](const DpbEntry& a, const DpbEntry& b) {
                          return a.display < b.display;
                      });
            while (dpb_.size() > 17) { // max refs (16) + future anchor
                dpb_.erase(dpb_.begin());
            }
        }
        return {fh.display, std::move(recon)};
    }

    // ---- Reconstruction (identical arithmetic to the encoder) -----------

    void
    addResidual4x4(Frame& recon, Plane plane, int px, int py,
                   const int16_t levels[16], int qp, const uint8_t* pred,
                   int pstride)
    {
        int16_t blk[16];
        std::copy(levels, levels + 16, blk);
        dequantize4x4(blk, qp);
        inverseDct4x4(blk);
        VT_SITE(site, DecRecon4);
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

    void
    copyPred(Frame& recon, Plane plane, int px, int py, const uint8_t* pred,
             int pstride, int w, int h)
    {
        VT_SITE(site, DecCopypred);
        trace::block(site);
        for (int y = 0; y < h; ++y) {
            trace::store(recon.simAddr(plane, px, py + y), w);
            for (int x = 0; x < w; ++x) {
                recon.at(plane, px + x, py + y) = pred[y * pstride + x];
            }
        }
    }

    void
    reconstructInterMb(Frame& recon, int mx, int my, const uint8_t* predY,
                       const uint8_t* predCb, const uint8_t* predCr, int qp,
                       const Residual& res)
    {
        for (int b = 0; b < 16; ++b) {
            const int bx = (b & 3) * 4;
            const int by = (b >> 2) * 4;
            if ((res.cbp >> lumaCbpGroup(b)) & 1) {
                addResidual4x4(recon, Plane::Y, mx + bx, my + by,
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
                    addResidual4x4(recon, plane, mx / 2 + bx, my / 2 + by,
                                   res.chroma[c][b], cqp,
                                   pred + by * 8 + bx, 8);
                } else {
                    copyPred(recon, plane, mx / 2 + bx, my / 2 + by,
                             pred + by * 8 + bx, 8, 4, 4);
                }
            }
        }
    }

    /** Motion compensation into MB-sized prediction buffers. */
    void
    mcInto(const Frame& ref, int mx, int my, const Mv& mv, uint8_t* py,
           uint8_t* pcb, uint8_t* pcr, Scratch base)
    {
        mcLumaBlock(py, 16, ref, mx, my, mv.x, mv.y, 16, 16,
                    static_cast<uint64_t>(base));
        mcChromaBlock(pcb, 8, ref, Plane::Cb, mx / 2, my / 2, mv.x, mv.y, 8,
                      8, static_cast<uint64_t>(base) + 256);
        mcChromaBlock(pcr, 8, ref, Plane::Cr, mx / 2, my / 2, mv.x, mv.y, 8,
                      8, static_cast<uint64_t>(base) + 320);
    }

    // ---- Macroblock decode -----------------------------------------------

    void
    decodeMacroblock(Frame& recon, const FrameHeader& fh, int mbx, int mby)
    {
        const int mx = mbx * 16;
        const int my = mby * 16;
        const int mb_index = mby * mb_w_ + mbx;
        const FrameType type = fh.type;

        const Mv pred0 = predictMv(mb_state_, mb_w_, mbx, mby, 0);
        const Mv pred1 = predictMv(mb_state_, mb_w_, mbx, mby, 1);
        Macroblock mb;
        syntax::macroblock(in_, fh, mb, pred0, pred1);
        const MbMode mode = mb.mode;
        const Residual& res = mb.res;

        uint8_t predY[256];
        uint8_t predCb[64];
        uint8_t predCr[64];

        if (mode == MbMode::Skip) {
            // P-Skip: MC at the predictor on ref 0. B-Skip: bi "direct".
            if (type == FrameType::B && ref1_ != nullptr) {
                uint8_t fy[256], fcb[64], fcr[64];
                uint8_t by[256], bcb[64], bcr[64];
                mcInto(*refs0_[0], mx, my, pred0, fy, fcb, fcr,
                       Scratch::Pred);
                mcInto(*ref1_, mx, my, pred1, by, bcb, bcr, Scratch::Pred2);
                averageBlocks(predY, fy, by, 256,
                              static_cast<uint64_t>(Scratch::Pred));
                averageBlocks(predCb, fcb, bcb, 64,
                              static_cast<uint64_t>(Scratch::Pred) + 256);
                averageBlocks(predCr, fcr, bcr, 64,
                              static_cast<uint64_t>(Scratch::Pred) + 320);
            } else {
                mcInto(*refs0_[0], mx, my, pred0, predY, predCb, predCr,
                       Scratch::Pred);
            }
            copyPred(recon, Plane::Y, mx, my, predY, 16, 16, 16);
            copyPred(recon, Plane::Cb, mx / 2, my / 2, predCb, 8, 8, 8);
            copyPred(recon, Plane::Cr, mx / 2, my / 2, predCr, 8, 8, 8);

            MbMotion st;
            st.intra = false;
            st.mv0 = pred0;
            st.mv1 = (type == FrameType::B) ? pred1 : Mv{};
            mb_state_[mb_index] = st;
            return;
        }

        const int qp = std::clamp(mb.qp, 0, 51);
        qp_map_[mb_index] = qp;

        // Reconstruct.
        if (mode == MbMode::Intra4) {
            // Sequential per-block reconstruction against live recon.
            uint8_t pred[16];
            for (int b = 0; b < 16; ++b) {
                const int px = mx + (b & 3) * 4;
                const int py = my + (b >> 2) * 4;
                predictIntra4(recon, px, py, mb.i4[b], pred);
                if ((res.cbp >> lumaCbpGroup(b)) & 1) {
                    addResidual4x4(recon, Plane::Y, px, py, res.luma[b], qp,
                                   pred, 4);
                } else {
                    copyPred(recon, Plane::Y, px, py, pred, 4, 4, 4);
                }
            }
            uint8_t cpred[64];
            const int cqp = std::max(0, qp - 2);
            for (int c = 0; c < 2; ++c) {
                const Plane plane = c == 0 ? Plane::Cb : Plane::Cr;
                predictChromaDc(recon, plane, mx / 2, my / 2, cpred);
                for (int b = 0; b < 4; ++b) {
                    const int bx = (b & 1) * 4;
                    const int by = (b >> 1) * 4;
                    if ((res.cbp >> (4 + c)) & 1) {
                        addResidual4x4(recon, plane, mx / 2 + bx,
                                       my / 2 + by, res.chroma[c][b], cqp,
                                       cpred + by * 8 + bx, 8);
                    } else {
                        copyPred(recon, plane, mx / 2 + bx, my / 2 + by,
                                 cpred + by * 8 + bx, 8, 4, 4);
                    }
                }
            }
            mb_state_[mb_index] = {Mv{}, Mv{}, true};
            return;
        }

        if (mode == MbMode::Intra16) {
            predictIntra16(recon, mx, my, mb.i16, predY);
            predictChromaDc(recon, Plane::Cb, mx / 2, my / 2, predCb);
            predictChromaDc(recon, Plane::Cr, mx / 2, my / 2, predCr);
            reconstructInterMb(recon, mx, my, predY, predCb, predCr, qp,
                               res);
            mb_state_[mb_index] = {Mv{}, Mv{}, true};
            return;
        }

        // Inter modes.
        if (mode == MbMode::Inter8x8) {
            for (int p = 0; p < 4; ++p) {
                const int ox = (p & 1) * 8;
                const int oy = (p >> 1) * 8;
                const Frame& ref = *refs0_[mb.ref8[p]];
                mcLumaBlock(predY + oy * 16 + ox, 16, ref, mx + ox, my + oy,
                            mb.mv8[p].x, mb.mv8[p].y, 8, 8,
                            static_cast<uint64_t>(Scratch::Pred) + oy * 16
                                + ox);
                mcChromaBlock(predCb + (oy / 2) * 8 + ox / 2, 8, ref,
                              Plane::Cb, mx / 2 + ox / 2, my / 2 + oy / 2,
                              mb.mv8[p].x, mb.mv8[p].y, 4, 4,
                              static_cast<uint64_t>(Scratch::Pred) + 256);
                mcChromaBlock(predCr + (oy / 2) * 8 + ox / 2, 8, ref,
                              Plane::Cr, mx / 2 + ox / 2, my / 2 + oy / 2,
                              mb.mv8[p].x, mb.mv8[p].y, 4, 4,
                              static_cast<uint64_t>(Scratch::Pred) + 320);
            }
        } else if (mb.dir == BDir::Fwd || ref1_ == nullptr) {
            mcInto(*refs0_[mb.ref0], mx, my, mb.mv0, predY, predCb, predCr,
                   Scratch::Pred);
        } else if (mb.dir == BDir::Bwd) {
            mcInto(*ref1_, mx, my, mb.mv1, predY, predCb, predCr,
                   Scratch::Pred);
        } else {
            uint8_t fy[256], fcb[64], fcr[64];
            uint8_t by[256], bcb[64], bcr[64];
            mcInto(*refs0_[mb.ref0], mx, my, mb.mv0, fy, fcb, fcr,
                   Scratch::Pred);
            mcInto(*ref1_, mx, my, mb.mv1, by, bcb, bcr, Scratch::Pred2);
            averageBlocks(predY, fy, by, 256,
                          static_cast<uint64_t>(Scratch::Pred));
            averageBlocks(predCb, fcb, bcb, 64,
                          static_cast<uint64_t>(Scratch::Pred) + 256);
            averageBlocks(predCr, fcr, bcr, 64,
                          static_cast<uint64_t>(Scratch::Pred) + 320);
        }
        reconstructInterMb(recon, mx, my, predY, predCb, predCr, qp, res);

        MbMotion st;
        st.intra = false;
        st.mv0 = mode == MbMode::Inter8x8 ? mb.mv8[0] : mb.mv0;
        st.mv1 = mb.mv1;
        mb_state_[mb_index] = st;
    }

    // ---- Members ---------------------------------------------------------

    BitReader br_;
    SyntaxReader in_;
    int mb_w_ = 0;
    int mb_h_ = 0;
    DeblockConfig deblock_;
    std::vector<DpbEntry> dpb_;
    std::vector<const Frame*> refs0_;
    const Frame* ref1_ = nullptr;
    std::vector<MbMotion> mb_state_;
    std::vector<int> qp_map_;
};

} // namespace

DecodeResult
decode(const std::vector<uint8_t>& bytes)
{
    StreamDecoder dec(bytes);
    return dec.run();
}

} // namespace vtrans::codec
