#include "codec/bitstream.h"

#include "common/status.h"
#include "trace/probe.h"

namespace vtrans::codec {

namespace {
// Virtual capacity reserved per bitstream buffer; simulated addresses are
// free, so this just keeps store addresses monotone within one stream.
constexpr uint64_t kStreamSimCapacity = 16ull << 20;
} // namespace

BitWriter::BitWriter() : sim_base_(trace::arena().alloc(kStreamSimCapacity))
{
}

void
BitWriter::flushByte()
{
    VT_SITE(site, BitstreamWriteByte);
    trace::block(site);
    trace::store(sim_base_ + buffer_.size(), 1);
    buffer_.push_back(static_cast<uint8_t>(acc_));
    acc_ = 0;
    acc_bits_ = 0;
}

void
BitWriter::putBits(uint32_t value, int count)
{
    VT_ASSERT(count >= 0 && count <= 32, "bit count out of range");
    VT_ASSERT(!finished_, "write after finish()");
    if (count < 32) {
        value &= (1u << count) - 1;
    }
    bits_written_ += count;
    while (count > 0) {
        const int space = 8 - acc_bits_;
        const int take = count < space ? count : space;
        acc_ = (acc_ << take)
               | ((value >> (count - take)) & ((1u << take) - 1));
        acc_bits_ += take;
        count -= take;
        if (acc_bits_ == 8) {
            flushByte();
        }
    }
}

void
BitWriter::putUe(uint32_t value)
{
    VT_SITE(site, BitstreamWriteUe);
    trace::block(site);
    const uint64_t code = static_cast<uint64_t>(value) + 1;
    int len = 0;
    while ((code >> len) > 1) {
        ++len;
    }
    putBits(0, len);
    putBits(static_cast<uint32_t>(code), len + 1);
}

void
BitWriter::putSe(int32_t value)
{
    const uint32_t mapped =
        value > 0 ? static_cast<uint32_t>(value) * 2 - 1
                  : static_cast<uint32_t>(-value) * 2;
    putUe(mapped);
}

void
BitWriter::align()
{
    if (acc_bits_ > 0) {
        const int pad = 8 - acc_bits_;
        bits_written_ += pad;
        acc_ <<= pad;
        acc_bits_ = 8;
        flushByte();
    }
}

const std::vector<uint8_t>&
BitWriter::finish()
{
    if (!finished_) {
        align();
        finished_ = true;
    }
    return buffer_;
}

BitReader::BitReader(const std::vector<uint8_t>& data)
    : data_(data), sim_base_(trace::arena().alloc(kStreamSimCapacity))
{
}

uint32_t
BitReader::getBits(int count)
{
    VT_ASSERT(count >= 0 && count <= 32, "bit count out of range");
    uint32_t result = 0;
    for (int i = 0; i < count; ++i) {
        const uint64_t byte_index = bit_pos_ >> 3;
        VT_ASSERT(byte_index < data_.size(), "bitstream underrun");
        if ((bit_pos_ & 7) == 0) {
            VT_SITE(site, BitstreamReadByte);
            trace::block(site);
            trace::load(sim_base_ + byte_index, 1);
        }
        const int shift = 7 - static_cast<int>(bit_pos_ & 7);
        result = (result << 1) | ((data_[byte_index] >> shift) & 1);
        ++bit_pos_;
    }
    return result;
}

uint32_t
BitReader::getUe()
{
    VT_SITE(site, BitstreamReadUe);
    trace::block(site);
    int zeros = 0;
    while (getBits(1) == 0) {
        ++zeros;
        VT_ASSERT(zeros <= 48, "malformed exp-Golomb code");
    }
    uint32_t value = 1;
    if (zeros > 0) {
        value = (1u << zeros) | getBits(zeros);
    }
    return value - 1;
}

int32_t
BitReader::getSe()
{
    const uint32_t mapped = getUe();
    if (mapped == 0) {
        return 0;
    }
    const int32_t magnitude = static_cast<int32_t>((mapped + 1) / 2);
    return (mapped & 1) ? magnitude : -magnitude;
}

void
BitReader::align()
{
    bit_pos_ = (bit_pos_ + 7) & ~7ull;
}

bool
BitReader::exhausted() const
{
    return (bit_pos_ >> 3) >= data_.size();
}

} // namespace vtrans::codec
