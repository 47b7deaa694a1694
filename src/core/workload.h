#ifndef VTRANS_CORE_WORKLOAD_H_
#define VTRANS_CORE_WORKLOAD_H_

/**
 * @file
 * The measured unit of every experiment: one instrumented transcode —
 * decode a mezzanine stream, re-encode with the parameters under study —
 * simulated on a chosen core configuration. Mirrors the paper's
 * methodology of profiling `ffmpeg -i in.mkv ... out.mkv` runs under
 * VTune/perf or Sniper.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "codec/encoder.h"
#include "codec/loopflags.h"
#include "codec/params.h"
#include "trace/probe.h"
#include "uarch/core.h"

namespace vtrans::core {

/** How the simulated binary was built (the paper's compiler study,
 *  §III-D1, plus the kernel cost model), as a value each run carries.
 *  The default is the binary every farm runs. */
struct Binary
{
    /// AutoFDO stand-in (layout/relayout.h); null = the default layout.
    std::shared_ptr<const trace::CodeLayout> layout;
    codec::LoopOptFlags loops; ///< Graphite stand-in loop schedules.
    codec::KernelModel kernels = codec::KernelModel::Scalar;
};

/** What to run and where to run it. */
struct RunConfig
{
    std::string video = "bbb";   ///< vbench short name (or "bbb").
    double seconds = 0.0;        ///< Clip length; 0 = full 5 s clip.
    codec::EncoderParams params; ///< Transcode parameters under study.
    uarch::CoreParams core;      ///< Simulated machine.
    Binary binary;               ///< Simulated binary.

    /** Input stream override (not owned; must outlive the run). When
     *  set, `video`/`seconds` are bookkeeping only. nullptr = use the
     *  cached mezzanine of `video`. */
    const std::vector<uint8_t>* input = nullptr;

    /** Keep the transcoded bitstream in RunResult::output (chunk jobs
     *  always keep theirs — the stitcher needs the bytes). */
    bool keep_output = false;
};

/** Everything measured from one run. */
struct RunResult
{
    uarch::CoreStats core;       ///< Counters + Top-down + derived rates.
    codec::EncodeStats encode;   ///< Bits, PSNR, frame/MB statistics.
    double transcode_seconds = 0.0; ///< Simulated wall time of the run.
    double psnr = 0.0;           ///< Transcoded quality (dB).
    double bitrate_kbps = 0.0;   ///< Transcoded size rate.
    std::vector<uint8_t> output; ///< Bitstream (only if keep_output).
};

/**
 * Returns the cached mezzanine stream for a video at a clip length
 * (generated and high-quality encoded on first use; pure bytes, safe to
 * cache across arena resets). Thread-safe: the cache is mutex-guarded and
 * returned references stay valid for the process lifetime.
 */
const std::vector<uint8_t>& mezzanine(const std::string& video,
                                      double seconds);

/**
 * Runs one instrumented transcode of the configured binary under the
 * configured core model. Resets the simulated heap first so results are
 * exactly reproducible regardless of what ran before; the binary's loop
 * flags and kernel model hold on this thread for the run only.
 */
RunResult runInstrumented(const RunConfig& config);

/**
 * Runs one instrumented transcode simulated on every class of `classes`
 * at once (one codec pass, one multi-class core model; `config.core` is
 * not used). Result `c` — stats, exported attribution and phase
 * counters included — is bit-identical to runInstrumented() with
 * `config.core = classes[c]`, and the classes export in list order.
 */
std::vector<RunResult> runInstrumented(
    const RunConfig& config, const std::vector<uarch::CoreParams>& classes);

/**
 * Runs the same transcode natively (no simulation; the binary's layout
 * plays no part) and returns only the encode statistics — used where
 * microarchitectural data is not needed.
 */
codec::EncodeStats runNative(const RunConfig& config);

/**
 * Runs one *chunk job* under the core model: transcodes every slice as
 * an independent closed-GOP encode, then remuxes the slice outputs into
 * the chunk's bitstream — all within a single instrumented session, so
 * `transcode_seconds` covers the chunk's full service time. The result's
 * `output` always holds the chunk bitstream; `encode`/`psnr`/`bitrate`
 * aggregate over the slices (frame-weighted). Simulated on every class
 * of `classes` at once, as the class-list runInstrumented() is; the
 * result holds one RunResult per class.
 */
std::vector<RunResult> runInstrumentedChunk(
    const std::vector<const std::vector<uint8_t>*>& slices,
    const RunConfig& config, const std::vector<uarch::CoreParams>& classes);

/**
 * Returns the (process-cached) split of a video's mezzanine at a clip
 * length under the given target parameters and chunk options. Splitting
 * decodes and re-encodes the clip once per distinct boundary plan, so
 * every submitter of the same chunked task shares one plan. Thread-safe;
 * the returned plan is immutable for the process lifetime.
 */
std::shared_ptr<const chunk::SplitPlan> cachedSplit(
    const std::string& video, double seconds,
    const codec::EncoderParams& target, const chunk::ChunkOptions& opts);

} // namespace vtrans::core

#endif // VTRANS_CORE_WORKLOAD_H_
