#include "codec/tables.h"

#include <array>
#include <cmath>

#include "common/status.h"

namespace vtrans::codec {

namespace {

// H.264 forward-quant multipliers, rows = QP % 6, columns = position
// class: a = {(0,0),(0,2),(2,0),(2,2)}, b = {(1,1),(1,3),(3,1),(3,3)},
// c = the remaining positions.
const int kMf[6][3] = {
    {13107, 5243, 8066}, {11916, 4660, 7490}, {10082, 4194, 6554},
    {9362, 3647, 5825},  {8192, 3355, 5243},  {7282, 2893, 4559},
};

// H.264 dequant multipliers with the same (row, class) layout.
const int kV[6][3] = {
    {10, 16, 13}, {11, 18, 14}, {13, 20, 16},
    {14, 23, 18}, {16, 25, 20}, {18, 29, 23},
};

/** Position class (0=a, 1=b, 2=c) of a raster position in a 4x4 block. */
int
posClass(int raster)
{
    const int r = raster >> 2;
    const int c = raster & 3;
    const bool r_even = (r % 2) == 0;
    const bool c_even = (c % 2) == 0;
    if (r_even && c_even) {
        return 0;
    }
    if (!r_even && !c_even) {
        return 1;
    }
    return 2;
}

/** kMf/kV expanded to contiguous per-position rows (one row per QP%6),
 *  so vector quant kernels can load 16 multipliers directly. */
struct ExpandedQuantTables
{
    int32_t mf[6][16];
    int32_t v[6][16];

    ExpandedQuantTables()
    {
        for (int rem = 0; rem < 6; ++rem) {
            for (int pos = 0; pos < 16; ++pos) {
                mf[rem][pos] = kMf[rem][posClass(pos)];
                v[rem][pos] = kV[rem][posClass(pos)];
            }
        }
    }
};

const ExpandedQuantTables&
expandedTables()
{
    static const ExpandedQuantTables tables;
    return tables;
}

} // namespace

const uint8_t kZigzag4x4[16] = {0, 1,  4,  8,  5, 2,  3,  6,
                                9, 12, 13, 10, 7, 11, 14, 15};

const uint8_t kZigzag4x4Inv[16] = {0, 1, 5, 6,  2,  4,  7,  12,
                                   3, 8, 11, 13, 9, 10, 14, 15};

double
qpToQstep(int qp)
{
    VT_ASSERT(qp >= 0 && qp < kQpCount, "QP out of range: ", qp);
    return 0.85 * std::pow(2.0, (qp - 12) / 6.0);
}

int
qstepToQp(double qstep)
{
    if (qstep <= 0.0) {
        return 0;
    }
    const int qp =
        static_cast<int>(std::lround(12.0 + 6.0 * std::log2(qstep / 0.85)));
    return qp < 0 ? 0 : (qp >= kQpCount ? kQpCount - 1 : qp);
}

int
lambdaFp(int qp)
{
    VT_ASSERT(qp >= 0 && qp < kQpCount, "QP out of range: ", qp);
    // x264-style: lambda grows as 2^((qp-12)/6); fixed point with 4
    // fractional bits, floor of 1. Tabulated once: the encoder asks for
    // it per block.
    static const std::array<int, kQpCount> table = [] {
        std::array<int, kQpCount> fps{};
        for (int q = 0; q < kQpCount; ++q) {
            const double lambda = 0.85 * std::pow(2.0, (q - 12) / 6.0);
            const int fp = static_cast<int>(std::lround(lambda * 16.0));
            fps[q] = fp < 1 ? 1 : fp;
        }
        return fps;
    }();
    return table[qp];
}

int
quantMf(int qp, int pos)
{
    VT_ASSERT(qp >= 0 && qp < kQpCount, "QP out of range: ", qp);
    VT_ASSERT(pos >= 0 && pos < 16, "position out of range");
    return kMf[qp % 6][posClass(pos)];
}

int
dequantV(int qp, int pos)
{
    VT_ASSERT(qp >= 0 && qp < kQpCount, "QP out of range: ", qp);
    VT_ASSERT(pos >= 0 && pos < 16, "position out of range");
    return kV[qp % 6][posClass(pos)];
}

const int32_t*
quantMfRow(int qp)
{
    VT_ASSERT(qp >= 0 && qp < kQpCount, "QP out of range: ", qp);
    return expandedTables().mf[qp % 6];
}

const int32_t*
dequantVRow(int qp)
{
    VT_ASSERT(qp >= 0 && qp < kQpCount, "QP out of range: ", qp);
    return expandedTables().v[qp % 6];
}

} // namespace vtrans::codec
