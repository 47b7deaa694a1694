#include "video/frame.h"

#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::video {

Frame::Frame(int width, int height)
    : width_(width),
      height_(height),
      y_(static_cast<size_t>(width) * height, 0),
      cb_(static_cast<size_t>(width / 2) * (height / 2), 0),
      cr_(static_cast<size_t>(width / 2) * (height / 2), 0)
{
    VT_ASSERT(width > 0 && height > 0, "frame dimensions must be positive");
    VT_ASSERT(width % 16 == 0 && height % 16 == 0,
              "frame dimensions must be whole macroblocks: ", width, "x",
              height);
    auto& arena = trace::arena();
    plane_base_[0] = arena.alloc(y_.size());
    plane_base_[1] = arena.alloc(cb_.size());
    plane_base_[2] = arena.alloc(cr_.size());
}

void
Frame::fill(uint8_t y, uint8_t cb, uint8_t cr)
{
    std::fill(y_.begin(), y_.end(), y);
    std::fill(cb_.begin(), cb_.end(), cb);
    std::fill(cr_.begin(), cr_.end(), cr);
}

void
Frame::copyFrom(const Frame& other)
{
    VT_ASSERT(other.width_ == width_ && other.height_ == height_,
              "frame geometry mismatch in copyFrom");
    y_ = other.y_;
    cb_ = other.cb_;
    cr_ = other.cr_;
}

} // namespace vtrans::video
