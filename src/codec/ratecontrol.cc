#include "codec/ratecontrol.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

namespace {

/** Frame-type QP offsets (x264's ip/pb factors expressed in QP). */
int
typeOffset(FrameType type)
{
    switch (type) {
      case FrameType::I:
        return -3;
      case FrameType::P:
        return 0;
      case FrameType::B:
        return 2;
    }
    return 0;
}

/** Initial QP guess for a bitrate target from bits-per-pixel. */
int
qpFromBpp(double bits_per_mb)
{
    // Empirical anchor: ~200 bits/MB around QP 30 for this codec, halving
    // every 6 QP.
    const double qp = 30.0 - 6.0 * std::log2(bits_per_mb / 200.0);
    return static_cast<int>(std::lround(std::clamp(qp, 4.0, 48.0)));
}

} // namespace

RateController::RateController(const EncoderParams& params, double fps,
                               int mb_count, int total_frames,
                               std::vector<PassStats> pass1)
    : params_(params),
      fps_(fps),
      mb_count_(mb_count),
      total_frames_(total_frames),
      pass1_(std::move(pass1))
{
    VT_ASSERT(fps_ > 0 && mb_count_ > 0 && total_frames_ > 0,
              "invalid rate-control geometry");
    if (params_.rc == RateControl::TwoPass) {
        VT_ASSERT(static_cast<int>(pass1_.size()) == total_frames_,
                  "two-pass rate control needs pass-1 stats for every "
                  "frame, got ", pass1_.size(), " of ", total_frames_);
        for (const auto& ps : pass1_) {
            pass1_cost_sum_ += std::pow(static_cast<double>(ps.bits), 0.6);
        }
    }
    if (params_.rc == RateControl::VBV) {
        buffer_rate_ = params_.vbv_maxrate_kbps * 1000.0 / fps_;
        buffer_size_ = params_.vbv_buffer_kbits * 1000.0;
        buffer_fullness_ = buffer_size_ * 0.9;
    }
    if (params_.rc == RateControl::CBR) {
        buffer_rate_ = params_.bitrate_kbps * 1000.0 / fps_;
        buffer_size_ = buffer_rate_ * 8.0; // ~8 frame buffer
        buffer_fullness_ = buffer_size_ / 2.0;
    }
}

int
RateController::clampQp(double qp) const
{
    return static_cast<int>(
        std::lround(std::clamp(qp, 0.0, 51.0)));
}

int
RateController::startFrame(FrameType type, double complexity)
{
    VT_SITE(site, RcStartframe);
    trace::block(site);

    frame_type_ = type;
    const double target_bits_per_frame =
        params_.bitrate_kbps * 1000.0 / fps_;

    if (complexity_ema_ <= 0.0) {
        complexity_ema_ = complexity;
    }
    complexity_ema_ = 0.9 * complexity_ema_ + 0.1 * complexity;

    double qp = params_.crf;
    switch (params_.rc) {
      case RateControl::CQP: {
        qp = params_.qp;
        break;
      }
      case RateControl::CRF:
      case RateControl::VBV: {
        // Quality-targeted: deviate from crf by frame complexity relative
        // to the running average (qcomp = 0.6 -> exponent 0.4).
        const double rel =
            complexity / std::max(1.0, complexity_ema_);
        qp = params_.crf + 6.0 * std::log2(std::max(rel, 1e-3)) * 0.4;
        if (params_.rc == RateControl::VBV) {
            // Pressure term: as the buffer drains, raise QP.
            const double fullness =
                buffer_fullness_ / std::max(1.0, buffer_size_);
            if (fullness < 0.5) {
                qp += (0.5 - fullness) * 16.0;
            }
        }
        break;
      }
      case RateControl::ABR:
      case RateControl::CBR: {
        const double bits_per_mb = target_bits_per_frame / mb_count_;
        qp = qpFromBpp(bits_per_mb);
        // Feedback: compare accumulated bits against the pro-rata target.
        if (frame_index_ > 0) {
            const double target_so_far =
                target_bits_per_frame * frame_index_;
            const double ratio =
                static_cast<double>(total_bits_)
                / std::max(1.0, target_so_far);
            qp += std::clamp(6.0 * std::log2(std::max(ratio, 1e-3)),
                             -8.0, 8.0);
        }
        break;
      }
      case RateControl::TwoPass: {
        const auto& ps = pass1_[frame_index_];
        const double total_target =
            params_.bitrate_kbps * 1000.0 * total_frames_ / fps_;
        const double share =
            std::pow(static_cast<double>(ps.bits), 0.6)
            / std::max(1e-9, pass1_cost_sum_);
        const double alloc = total_target * share;
        // Pass-1 rate model: bits halve every +6 QP from the pass-1 QP.
        qp = ps.qp
             + 6.0 * std::log2(static_cast<double>(ps.bits)
                               / std::max(1.0, alloc));
        // Mild feedback against drift.
        if (frame_index_ > 0) {
            const double target_so_far =
                total_target * frame_index_ / total_frames_;
            const double ratio = static_cast<double>(total_bits_)
                                 / std::max(1.0, target_so_far);
            qp += std::clamp(3.0 * std::log2(std::max(ratio, 1e-3)),
                             -4.0, 4.0);
        }
        break;
      }
    }

    qp += typeOffset(type);
    frame_qp_ = clampQp(qp);
    frame_bit_budget_ = static_cast<uint64_t>(
        params_.rc == RateControl::CBR ? buffer_rate_
                                       : target_bits_per_frame);
    return frame_qp_;
}

int
RateController::mbQp(int mb_index, uint64_t bits_so_far, double variance)
{
    VT_SITE(site, RcMbqp);
    trace::block(site);

    double qp = frame_qp_;

    // Adaptive quantization: flat blocks get finer quantization, textured
    // blocks coarser (variance masking), as x264 aq-mode 1.
    if (params_.aq_mode == 1) {
        avg_variance_ = 0.999 * avg_variance_ + 0.001 * variance;
        const double delta =
            params_.aq_strength * 1.2
            * (std::log2(variance + 1.0) - std::log2(avg_variance_ + 1.0));
        qp += std::clamp(delta, -6.0, 6.0);
    }

    // CBR is the one mode applied at macroblock granularity (paper
    // §II-B1): steer within the frame toward the per-frame budget.
    if (params_.rc == RateControl::CBR && mb_index > 0) {
        const double expected = static_cast<double>(frame_bit_budget_)
                                * mb_index / mb_count_;
        const double ratio =
            static_cast<double>(bits_so_far) / std::max(1.0, expected);
        VT_SITE(site_b, RcCbrAdjust);
        const bool over = ratio > 1.0;
        trace::branch(site_b, over);
        qp += std::clamp(4.0 * std::log2(std::max(ratio, 1e-3)), -3.0, 3.0);
    }

    return clampQp(qp);
}

void
RateController::endFrame(uint64_t bits)
{
    VT_SITE(site, RcEndframe);
    trace::block(site);

    total_bits_ += bits;
    ++frame_index_;

    if (params_.rc == RateControl::VBV || params_.rc == RateControl::CBR) {
        buffer_fullness_ += buffer_rate_ - static_cast<double>(bits);
        if (buffer_fullness_ < 0.0) {
            ++vbv_violations_;
            buffer_fullness_ = 0.0;
        }
        buffer_fullness_ = std::min(buffer_fullness_, buffer_size_);
    }
}

} // namespace vtrans::codec
