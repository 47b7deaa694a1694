#include "video/generate.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/status.h"

namespace vtrans::video {

namespace {

/** Clamps a value into the 8-bit pixel range. */
inline uint8_t
pixel(double v)
{
    return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

/** Normalizes an entropy value into [0, 1] against vbench's observed max. */
inline double
entropyNorm(double entropy)
{
    return std::clamp(entropy / 7.7, 0.0, 1.0);
}

} // namespace

Generator::Generator(const VideoSpec& spec) : spec_(spec), rng_(spec.seed)
{
    VT_ASSERT(spec_.width % 16 == 0 && spec_.height % 16 == 0,
              "spec dimensions must be whole macroblocks");
    const double e = entropyNorm(spec_.entropy);
    noise_sigma_ = 0.3 + 5.0 * e;
    // Expected scene cuts over a standard 5 s clip roughly equals the
    // entropy value (high-entropy vbench clips cut every second or two);
    // the per-frame probability is independent of the clip length.
    cut_probability_ = spec_.entropy / (5.0 * spec_.fps);
    newScene();
}

void
Generator::newScene()
{
    const double e = entropyNorm(spec_.entropy);

    bg_luma_ = static_cast<int>(rng_.range(40, 200));
    bg_cb_ = static_cast<int>(rng_.range(108, 148));
    bg_cr_ = static_cast<int>(rng_.range(108, 148));
    bg_freq_ = 0.02 + 0.25 * e * rng_.uniform();
    bg_phase_x_ = rng_.uniform() * 2.0 * M_PI;
    bg_phase_y_ = rng_.uniform() * 2.0 * M_PI;
    // Background pan speed in pixels/frame grows with entropy.
    const double pan = 0.05 + 2.5 * e;
    bg_vel_x_ = (rng_.uniform() * 2.0 - 1.0) * pan;
    bg_vel_y_ = (rng_.uniform() * 2.0 - 1.0) * pan * 0.5;

    const int count = 2 + static_cast<int>(e * 8.0 + rng_.below(2));
    objects_.clear();
    objects_.reserve(count);
    for (int i = 0; i < count; ++i) {
        Object obj;
        obj.w = static_cast<int>(
            rng_.range(spec_.width / 10 + 2, spec_.width / 3 + 2));
        obj.h = static_cast<int>(
            rng_.range(spec_.height / 10 + 2, spec_.height / 3 + 2));
        obj.x = rng_.uniform() * spec_.width - obj.w / 2.0;
        obj.y = rng_.uniform() * spec_.height - obj.h / 2.0;
        const double speed = 0.1 + 4.0 * e;
        obj.vx = (rng_.uniform() * 2.0 - 1.0) * speed;
        obj.vy = (rng_.uniform() * 2.0 - 1.0) * speed;
        obj.luma = static_cast<int>(rng_.range(30, 225));
        obj.cb = static_cast<int>(rng_.range(90, 166));
        obj.cr = static_cast<int>(rng_.range(90, 166));
        obj.tex_freq = 0.05 + 0.9 * e * rng_.uniform();
        obj.tex_phase = rng_.uniform() * 2.0 * M_PI;
        obj.phase_rate = 0.4 * e * (rng_.uniform() * 2.0 - 1.0);
        objects_.push_back(obj);
    }
}

void
Generator::stepScene()
{
    bg_phase_x_ += bg_vel_x_ * bg_freq_;
    bg_phase_y_ += bg_vel_y_ * bg_freq_;
    for (auto& obj : objects_) {
        obj.x += obj.vx;
        obj.y += obj.vy;
        obj.tex_phase += obj.phase_rate;
        // Bounce off the frame so objects stay mostly visible.
        if (obj.x < -obj.w) {
            obj.x = -obj.w;
            obj.vx = std::abs(obj.vx);
        }
        if (obj.x > spec_.width) {
            obj.x = spec_.width;
            obj.vx = -std::abs(obj.vx);
        }
        if (obj.y < -obj.h) {
            obj.y = -obj.h;
            obj.vy = std::abs(obj.vy);
        }
        if (obj.y > spec_.height) {
            obj.y = spec_.height;
            obj.vy = -std::abs(obj.vy);
        }
    }
}

void
Generator::renderInto(Frame& frame)
{
    const int w = spec_.width;
    const int h = spec_.height;
    uint8_t* luma = frame.data(Plane::Y);

    // Background: two crossed sinusoids over a base level, panning. The
    // first depends on the column only and the second on the row only,
    // so each is evaluated once per column or row.
    std::vector<double> col_tex(w);
    std::vector<double> row_tex(h);
    for (int x = 0; x < w; ++x) {
        col_tex[x] = 18.0 * std::sin(bg_freq_ * x + bg_phase_x_);
    }
    for (int y = 0; y < h; ++y) {
        row_tex[y] = 12.0 * std::sin(bg_freq_ * 1.7 * y + bg_phase_y_);
    }
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const double tex = col_tex[x] + row_tex[y];
            luma[y * w + x] = pixel(bg_luma_ + tex);
        }
    }
    uint8_t* cb = frame.data(Plane::Cb);
    uint8_t* cr = frame.data(Plane::Cr);
    const int cw = frame.chromaWidth();
    const int ch = frame.chromaHeight();
    std::fill(cb, cb + static_cast<size_t>(cw) * ch,
              static_cast<uint8_t>(bg_cb_));
    std::fill(cr, cr + static_cast<size_t>(cw) * ch,
              static_cast<uint8_t>(bg_cr_));

    // Objects: textured rectangles painted over the background. The
    // texture's two sinusoids depend on x + y and on x - y only, so each
    // is evaluated once per diagonal of the painted rectangle.
    std::vector<double> sum_tex;
    std::vector<double> diff_tex;
    for (const auto& obj : objects_) {
        const int x0 = std::max(0, static_cast<int>(obj.x));
        const int y0 = std::max(0, static_cast<int>(obj.y));
        const int x1 = std::min(w, static_cast<int>(obj.x) + obj.w);
        const int y1 = std::min(h, static_cast<int>(obj.y) + obj.h);
        if (x0 < x1 && y0 < y1) {
            // x + y spans [x0 + y0, x1 + y1 - 2], x - y spans
            // [x0 - y1 + 1, x1 - 1 - y0].
            const int sum0 = x0 + y0;
            const int diff0 = x0 - y1 + 1;
            const int diagonals = (x1 - x0) + (y1 - y0) - 1;
            sum_tex.resize(diagonals);
            diff_tex.resize(diagonals);
            for (int i = 0; i < diagonals; ++i) {
                sum_tex[i] = 25.0
                             * std::sin(obj.tex_freq * (sum0 + i)
                                        + obj.tex_phase);
                diff_tex[i] =
                    15.0 * std::sin(obj.tex_freq * 2.3 * (diff0 + i));
            }
            for (int y = y0; y < y1; ++y) {
                // Column x reads diagonal x + y - sum0 and x - y - diff0.
                const double* sum_row = &sum_tex[y - y0];
                const double* diff_row = &diff_tex[y1 - 1 - y];
                for (int x = x0; x < x1; ++x) {
                    const double tex = sum_row[x - x0] + diff_row[x - x0];
                    luma[y * w + x] = pixel(obj.luma + tex);
                }
            }
        }
        for (int y = y0 / 2; y < y1 / 2; ++y) {
            for (int x = x0 / 2; x < x1 / 2; ++x) {
                cb[y * cw + x] = static_cast<uint8_t>(obj.cb);
                cr[y * cw + x] = static_cast<uint8_t>(obj.cr);
            }
        }
    }

    // Sensor noise on luma; amplitude scales with entropy.
    if (noise_sigma_ > 0.05) {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                const double n = rng_.gaussian() * noise_sigma_;
                luma[y * w + x] = pixel(luma[y * w + x] + n);
            }
        }
    }
}

void
Generator::renderNext(Frame& frame)
{
    VT_ASSERT(frame.width() == spec_.width && frame.height() == spec_.height,
              "frame geometry must match the spec");
    last_was_cut_ = false;
    if (frame_index_ > 0) {
        if (rng_.chance(cut_probability_)) {
            newScene();
            last_was_cut_ = true;
        } else {
            stepScene();
        }
    }
    renderInto(frame);
    ++frame_index_;
}

std::vector<Frame>
generateVideo(const VideoSpec& spec)
{
    Generator gen(spec);
    std::vector<Frame> frames;
    frames.reserve(spec.frames());
    for (int i = 0; i < spec.frames(); ++i) {
        frames.emplace_back(spec.width, spec.height);
        gen.renderNext(frames.back());
    }
    return frames;
}

} // namespace vtrans::video
