#ifndef VTRANS_CODEC_TRELLIS_H_
#define VTRANS_CODEC_TRELLIS_H_

/**
 * @file
 * Trellis quantization (paper §II-B4): rate-distortion-optimal rounding of
 * transform coefficients via dynamic programming over the (run, level)
 * entropy-coding states, as introduced for H.263+/H.264 and used by x264.
 * Level 1 applies it to the final encode of each block; level 2 also to
 * candidate evaluations during mode decision.
 */

#include <cstdint>

namespace vtrans::codec {

/**
 * Rate-distortion optimal quantization of one 4x4 coefficient block.
 *
 * For each zigzag position the quantizer considers the dead-zone-rounded
 * level, the level one below it, and zero, and picks the path minimizing
 * distortion + lambda * rate, where rate mirrors the (run, level)
 * exp-Golomb coding the bitstream writer emits. It keeps one cost per
 * run and a back-pointer for run 0 only (a zero level moves run r to
 * r + 1, the only way to reach it). Its probe events model a scan over
 * every live (run, candidate) pair and are replayed from the same costs
 * while a sink is attached; the levels chosen do not depend on it.
 *
 * @param coef   Transform coefficients (overwritten with chosen levels).
 * @param qp     Quantization parameter.
 * @param intra  Intra blocks use the larger dead-zone baseline.
 * @param lambda_fp Fixed-point lambda (tables.h).
 * @return Number of non-zero levels chosen.
 */
int trellisQuantize4x4(int16_t coef[16], int qp, bool intra, int lambda_fp);

} // namespace vtrans::codec

#endif // VTRANS_CODEC_TRELLIS_H_
