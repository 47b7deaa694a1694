#ifndef VTRANS_VIDEO_FRAME_H_
#define VTRANS_VIDEO_FRAME_H_

/**
 * @file
 * Raw video frames in 8-bit YUV 4:2:0 planar format — the decoded
 * intermediate representation that transcoding produces and re-encodes.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vtrans::video {

/** Identifies one of the three planes of a YUV 4:2:0 frame. */
enum class Plane : uint8_t { Y = 0, Cb = 1, Cr = 2 };

/**
 * One raw frame of YUV 4:2:0 video.
 *
 * The luma plane is width x height; each chroma plane is subsampled 2x2.
 * Every frame reserves a deterministic simulated address range so that
 * instrumented pixel accesses are reproducible across runs (see
 * trace::SimArena). Width and height must be multiples of 16 (whole
 * macroblocks); the synthetic generator guarantees this.
 */
class Frame
{
  public:
    /** Constructs a zero-initialized frame. Dimensions must be mod-16. */
    Frame(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }
    int chromaWidth() const { return width_ / 2; }
    int chromaHeight() const { return height_ / 2; }

    /** Mutable pixel access into a plane (no bounds checks in release). */
    uint8_t&
    at(Plane p, int x, int y)
    {
        return data(p)[static_cast<size_t>(y) * stride(p) + x];
    }
    /** Read-only pixel access into a plane. */
    uint8_t
    at(Plane p, int x, int y) const
    {
        return data(p)[static_cast<size_t>(y) * stride(p) + x];
    }

    /** Raw pointer to a plane's first pixel (row-major, tightly packed). */
    uint8_t*
    data(Plane p)
    {
        return p == Plane::Y ? y_.data()
                             : (p == Plane::Cb ? cb_.data() : cr_.data());
    }
    const uint8_t*
    data(Plane p) const
    {
        return const_cast<Frame*>(this)->data(p);
    }

    /** Row stride (== plane width) of a plane. */
    int stride(Plane p) const { return p == Plane::Y ? width_ : width_ / 2; }
    /** Height of a plane. */
    int planeHeight(Plane p) const
    {
        return p == Plane::Y ? height_ : height_ / 2;
    }

    /** Simulated address of pixel (x, y) in plane `p` for probing. */
    uint64_t
    simAddr(Plane p, int x, int y) const
    {
        return plane_base_[static_cast<int>(p)]
               + static_cast<uint64_t>(y) * stride(p) + x;
    }

    /** Total pixel bytes across all planes. */
    size_t byteSize() const { return y_.size() + cb_.size() + cr_.size(); }

    /** Fills every plane with a constant value. */
    void fill(uint8_t y, uint8_t cb, uint8_t cr);

    /** Deep-copies pixels from another frame of identical geometry. */
    void copyFrom(const Frame& other);

  private:
    int width_;
    int height_;
    std::vector<uint8_t> y_;
    std::vector<uint8_t> cb_;
    std::vector<uint8_t> cr_;
    uint64_t plane_base_[3];
};

} // namespace vtrans::video

#endif // VTRANS_VIDEO_FRAME_H_
