#ifndef VTRANS_CODEC_STRATEGIES_STRATEGIES_H_
#define VTRANS_CODEC_STRATEGIES_STRATEGIES_H_

/**
 * @file
 * Per-ISA kernel strategies for the codec's hot loops, after kvazaar's
 * src/strategies pattern: every pixel/transform kernel exists as a scalar
 * reference plus vector variants (SSE4.1, AVX2), collected into a
 * function-pointer table that is selected once at startup and consulted by
 * the public kernels in pixel.cc / dct.cc.
 *
 * The contract is **integer exactness**: every variant of every kernel
 * returns bit-identical results to the scalar reference for every input
 * (differential-tested in tests/test_kernels.cc), so encoded bitstreams,
 * decoded frames, and instrumented-run fingerprints do not depend on the
 * selected backend. Probe events are emitted by the public wrappers, never
 * by the ops below, so the simulated event stream is backend-invariant
 * too.
 *
 * Selection: `VTRANS_KERNEL_ISA` (env) or `setKernelIsa()` (the benches'
 * `--kernels` flag) with values `scalar`, `sse41`, `avx2`, or `auto`
 * (default: best ISA the CPU supports). Vector tables fall back to the
 * scalar entry for ops a backend does not specialize.
 *
 * Separately from the *native* backend, `setKernelModel()` switches the
 * *simulated* cost model of the kernels between their scalar and vector
 * forms (the `.vec` rows of trace/sites.def); the default is the scalar model, which is
 * bit-identical to the pre-strategies probe stream.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vtrans::codec {

/**
 * One backend's kernel implementations. All functions operate on raw
 * pixel/coefficient pointers with explicit strides and perform no edge
 * clamping and no probing — callers (the public kernels) handle frame
 * borders with the scalar clamped path and emit the probe events.
 */
struct KernelOps
{
    const char* name; ///< Backend name ("scalar", "sse41", "avx2").

    /**
     * SAD of a fully in-frame `w x rows` region (w = 4, 8 or 16) between
     * `cur` (stride `cstride`) and `ref` (stride `rstride`).
     */
    int (*sad_rows)(const uint8_t* cur, int cstride, const uint8_t* ref,
                    int rstride, int w, int rows);

    /**
     * 4x4 Hadamard-transformed SAD between a source block and a
     * prediction block, both fully in bounds. Returns (sum|H d H|+1)/2.
     */
    int (*satd4x4)(const uint8_t* cur, int cstride, const uint8_t* pred,
                   int pstride);

    /** Forward 4x4 core transform, in place (same math as dct.h). */
    void (*forward_dct4x4)(int16_t block[16]);

    /** Inverse 4x4 core transform with >> 6 normalization, in place. */
    void (*inverse_dct4x4)(int16_t block[16]);

    /**
     * Dead-zone quantization with per-position multipliers `mf`
     * (quantMfRow), rounding offset `f` and shift `shift` (quantShift).
     * @return Number of non-zero levels.
     */
    int (*quantize4x4)(int16_t block[16], const int32_t mf[16], int32_t f,
                       int shift);

    /**
     * Dequantization with per-position multipliers `v` (dequantVRow) and
     * left shift `scale` (= qp/6), saturating into int16.
     */
    void (*dequantize4x4)(int16_t block[16], const int32_t v[16],
                          int scale);

    /** Full-pel motion compensation: copies a w x h region. */
    void (*mc_copy)(uint8_t* dst, int dstride, const uint8_t* src,
                    int sstride, int w, int h);

    /**
     * Quarter-pel bilinear motion compensation of a w x h block whose
     * (w+1) x (h+1) source window is fully in bounds. (fx, fy) are the
     * quarter-pel phases in 0..3, not both zero.
     */
    void (*mc_bilinear)(uint8_t* dst, int dstride, const uint8_t* src,
                        int sstride, int w, int h, int fx, int fy);

    /** Rounded average of two length-n buffers ((a+b+1)>>1). */
    void (*average)(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                    int n);
};

/** The scalar reference table (always available; the exactness oracle). */
const KernelOps& scalarKernels();

/** The SSE4.1 table, or nullptr when unsupported (arch or CPU). */
const KernelOps* sse41Kernels();

/** The AVX2 table, or nullptr when unsupported (arch or CPU). */
const KernelOps* avx2Kernels();

namespace detail {

/** Active table; null until first use (lazy env-based init). */
extern std::atomic<const KernelOps*> g_kernels;

/** True when the simulated cost model uses the vector kernel forms. */
extern std::atomic<bool> g_vector_model;

/** Resolves VTRANS_KERNEL_ISA (default auto) and publishes the table. */
const KernelOps* initKernels();

} // namespace detail

/** The active kernel table (initialized from VTRANS_KERNEL_ISA on first
 *  use; `auto`/unset selects the best ISA this CPU supports). */
inline const KernelOps&
kernels()
{
    const KernelOps* k = detail::g_kernels.load(std::memory_order_relaxed);
    return k != nullptr ? *k : *detail::initKernels();
}

/**
 * Forces the kernel backend: "scalar", "sse41", "avx2" or "auto".
 * @return false (and leaves the selection unchanged) if `name` is unknown
 *         or names an ISA this CPU cannot run.
 *
 * Selection is process-wide; switch it at startup or between runs, not
 * while worker threads are encoding.
 */
bool setKernelIsa(const std::string& name);

/** Name of the active backend ("scalar", "sse41", "avx2"). */
std::string kernelIsa();

/** Backends this build + CPU can run, in increasing ISA order
 *  (always starts with "scalar"). */
std::vector<std::string> availableKernelIsas();

/**
 * Simulated kernel cost model: Scalar emits exactly the historical probe
 * sites (default; bit-identical fingerprints), Vector emits the SIMD-form
 * sites — fewer, wider retired ops per block, costs in the `.vec` rows of
 * trace/sites.def — so instrumented runs show the Top-down shift of vectorization.
 */
enum class KernelModel : uint8_t { Scalar, Vector };

/** True when the vector probe model is active (hot-path accessor). */
inline bool
vectorKernelModel()
{
    return detail::g_vector_model.load(std::memory_order_relaxed);
}

/** Selects the simulated kernel cost model (process-wide). */
void setKernelModel(KernelModel model);

/** Parses "scalar" / "vector" (the --kernel-model flag values).
 *  @return false on an unknown name (selection unchanged). */
bool setKernelModel(const std::string& name);

/** The active simulated kernel cost model. */
KernelModel kernelModel();

} // namespace vtrans::codec

#endif // VTRANS_CODEC_STRATEGIES_STRATEGIES_H_
