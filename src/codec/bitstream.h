#ifndef VTRANS_CODEC_BITSTREAM_H_
#define VTRANS_CODEC_BITSTREAM_H_

/**
 * @file
 * Bit-level serialization with unsigned/signed exp-Golomb codes — the
 * entropy-coding substrate of the VX1 bitstream. Writer and reader are
 * instrumented so the simulator observes the byte-granular store/load
 * traffic of bitstream packing, one of the branchy store-heavy phases the
 * paper identifies in the encode pipeline.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

/** Serializes bits MSB-first into a byte buffer. */
class BitWriter
{
  public:
    BitWriter();

    /** Appends `count` bits (<= 32) from the low bits of `value`. */
    void putBits(uint32_t value, int count);

    /** Appends an unsigned exp-Golomb code. */
    void putUe(uint32_t value);

    /** Appends a signed exp-Golomb code. */
    void putSe(int32_t value);

    /** Pads with zero bits to the next byte boundary. */
    void align();

    /** Total bits written so far (including pending partial byte). */
    uint64_t bitCount() const { return bits_written_; }

    /** Finishes (aligns) and returns the byte buffer. */
    const std::vector<uint8_t>& finish();

    /** Read-only view of the bytes flushed so far. */
    const std::vector<uint8_t>& bytes() const { return buffer_; }

  private:
    /** Appends one whole byte to the buffer (a probed store). */
    void flushByte(uint8_t byte);

    std::vector<uint8_t> buffer_;
    uint32_t acc_ = 0;       ///< Pending bits, right-aligned.
    int acc_bits_ = 0;       ///< Number of pending bits (< 8).
    uint64_t bits_written_ = 0;
    uint64_t sim_base_;      ///< Simulated address of buffer_[0].
    bool finished_ = false;
};

inline void
BitWriter::putBits(uint32_t value, int count)
{
    VT_ASSERT(count >= 0 && count <= 32, "bit count out of range");
    VT_ASSERT(!finished_, "write after finish()");
    if (count < 32) {
        value &= (1u << count) - 1;
    }
    bits_written_ += count;
    // Fewer than 8 pending bits plus at most 32 new ones fit in 64; every
    // byte they complete is flushed in stream order.
    uint64_t acc = (static_cast<uint64_t>(acc_) << count) | value;
    int bits = acc_bits_ + count;
    while (bits >= 8) {
        bits -= 8;
        flushByte(static_cast<uint8_t>(acc >> bits));
    }
    acc_ = static_cast<uint32_t>(acc & ((1u << bits) - 1));
    acc_bits_ = bits;
}

inline void
BitWriter::putUe(uint32_t value)
{
    VT_SITE(site, BitstreamWriteUe);
    trace::block(site);
    const uint64_t code = static_cast<uint64_t>(value) + 1;
    const int len = static_cast<int>(std::bit_width(code)) - 1;
    // len zeros, then code in len + 1 bits: one write of code in
    // 2 * len + 1 bits whenever that fits (the same bytes, flushed in the
    // same order).
    if (len < 16) {
        putBits(static_cast<uint32_t>(code), 2 * len + 1);
        return;
    }
    putBits(0, len);
    putBits(static_cast<uint32_t>(code), len + 1);
}

inline void
BitWriter::putSe(int32_t value)
{
    const uint32_t mapped =
        value > 0 ? static_cast<uint32_t>(value) * 2 - 1
                  : static_cast<uint32_t>(-value) * 2;
    putUe(mapped);
}

/** Deserializes bits written by BitWriter. */
class BitReader
{
  public:
    /** Wraps a byte buffer (not owned; must outlive the reader). */
    explicit BitReader(const std::vector<uint8_t>& data);

    /** Reads `count` bits (<= 32), MSB-first. */
    uint32_t getBits(int count);

    /** Reads an unsigned exp-Golomb code. */
    uint32_t getUe();

    /** Reads a signed exp-Golomb code. */
    int32_t getSe();

    /** Skips to the next byte boundary. */
    void align();

    /** True when all bytes have been consumed. */
    bool exhausted() const;

    /** Bits consumed so far. */
    uint64_t bitPosition() const { return bit_pos_; }

  private:
    /** The byte holding the next bit; emits the byte's read events when
     *  the next bit is its first. Fatal past the end of the stream. */
    uint8_t enterByte();

    const std::vector<uint8_t>& data_;
    uint64_t bit_pos_ = 0;
    uint64_t sim_base_; ///< Simulated address of data_[0].
};

} // namespace vtrans::codec

#endif // VTRANS_CODEC_BITSTREAM_H_
