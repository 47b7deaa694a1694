#include "codec/dct.h"

#include <cstdlib>

#include "codec/pixel.h"
#include "codec/strategies/strategies.h"
#include "codec/tables.h"
#include "trace/probe.h"

namespace vtrans::codec {

void
forwardDct4x4(int16_t block[16])
{
    if (vectorKernelModel()) {
        VT_SITE(site_vec, DctForward4x4Vec);
        trace::block(site_vec);
    } else {
        VT_SITE(site, DctForward4x4);
        trace::block(site);
    }
    trace::load(static_cast<uint64_t>(Scratch::Residual), 32);
    trace::store(static_cast<uint64_t>(Scratch::Coeff), 32);

    kernels().forward_dct4x4(block);
}

void
inverseDct4x4(int16_t block[16])
{
    if (vectorKernelModel()) {
        VT_SITE(site_vec, DctInverse4x4Vec);
        trace::block(site_vec);
    } else {
        VT_SITE(site, DctInverse4x4);
        trace::block(site);
    }
    trace::load(static_cast<uint64_t>(Scratch::Dequant), 32);
    trace::store(static_cast<uint64_t>(Scratch::Residual), 32);

    kernels().inverse_dct4x4(block);
}

int
quantize4x4(int16_t block[16], int qp, bool intra)
{
    if (vectorKernelModel()) {
        VT_SITE(site_vec, DctQuant4x4Vec);
        trace::block(site_vec);
    } else {
        VT_SITE(site, DctQuant4x4);
        trace::block(site);
    }
    trace::load(static_cast<uint64_t>(Scratch::Coeff), 32);
    trace::store(static_cast<uint64_t>(Scratch::Coeff), 32);

    const int shift = quantShift(qp);
    // Dead zone: intra f = 2^shift / 3, inter f = 2^shift / 6.
    const int f = (1 << shift) / (intra ? 3 : 6);
    return kernels().quantize4x4(block, quantMfRow(qp), f, shift);
}

void
dequantize4x4(int16_t block[16], int qp)
{
    if (vectorKernelModel()) {
        VT_SITE(site_vec, DctDequant4x4Vec);
        trace::block(site_vec);
    } else {
        VT_SITE(site, DctDequant4x4);
        trace::block(site);
    }
    trace::load(static_cast<uint64_t>(Scratch::Coeff), 32);
    trace::store(static_cast<uint64_t>(Scratch::Dequant), 32);

    kernels().dequantize4x4(block, dequantVRow(qp), qp / 6);
}

} // namespace vtrans::codec
