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
BitWriter::flushByte(uint8_t byte)
{
    VT_SITE(site, BitstreamWriteByte);
    trace::block(site);
    trace::store(sim_base_ + buffer_.size(), 1);
    buffer_.push_back(byte);
}

void
BitWriter::align()
{
    if (acc_bits_ > 0) {
        const int pad = 8 - acc_bits_;
        bits_written_ += pad;
        flushByte(static_cast<uint8_t>(acc_ << pad));
        acc_ = 0;
        acc_bits_ = 0;
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

uint8_t
BitReader::enterByte()
{
    const uint64_t byte_index = bit_pos_ >> 3;
    VT_ASSERT(byte_index < data_.size(), "bitstream underrun");
    if ((bit_pos_ & 7) == 0) {
        VT_SITE(site, BitstreamReadByte);
        trace::block(site);
        trace::load(sim_base_ + byte_index, 1);
    }
    return data_[byte_index];
}

uint32_t
BitReader::getBits(int count)
{
    VT_ASSERT(count >= 0 && count <= 32, "bit count out of range");
    uint64_t result = 0;
    while (count > 0) {
        // The rest of the current byte, or as much of it as is asked for.
        const int offset = static_cast<int>(bit_pos_ & 7);
        const uint8_t byte = enterByte();
        const int take = count < 8 - offset ? count : 8 - offset;
        const int shift = 8 - offset - take;
        result = (result << take) | ((byte >> shift) & ((1u << take) - 1));
        bit_pos_ += take;
        count -= take;
    }
    return static_cast<uint32_t>(result);
}

uint32_t
BitReader::getUe()
{
    VT_SITE(site, BitstreamReadUe);
    trace::block(site);
    // Leading zeros, a byte at a time, up to and including the first one.
    int zeros = 0;
    for (;;) {
        const int offset = static_cast<int>(bit_pos_ & 7);
        const uint8_t rest = static_cast<uint8_t>(enterByte() << offset);
        const int lead = rest == 0 ? 8 - offset : std::countl_zero(rest);
        zeros += lead;
        VT_ASSERT(zeros <= 48, "malformed exp-Golomb code");
        bit_pos_ += lead;
        if (rest != 0) {
            ++bit_pos_;
            break;
        }
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
