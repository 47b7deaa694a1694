/**
 * @file
 * Quickstart: the minimal end-to-end use of the vtrans public API.
 *
 *   1. Generate a synthetic clip (a vbench stand-in).
 *   2. Encode it with the VX1 encoder at a chosen crf.
 *   3. Decode it back and measure PSNR and bitrate.
 *   4. Transcode the stream to a smaller rendition and profile the
 *      transcode on the simulated baseline CPU.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [--video cricket] [--crf 23]
 */

#include <cstdio>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/transcode.h"
#include "common/cli.h"
#include "core/workload.h"
#include "uarch/config.h"
#include "video/generate.h"
#include "video/quality.h"
#include "video/vbench.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    Cli cli(argc, argv);
    setVerbose(false);

    const std::string video = cli.str("video", "cricket");
    const int crf = static_cast<int>(cli.num("crf", 23));
    cli.rejectUnknown();

    // 1. A synthetic clip matching one row of the vbench corpus.
    video::VideoSpec spec = video::findVideo(video);
    spec.seconds = 1.0;
    std::printf("Generating '%s': %dx%d @ %d fps, entropy %.1f, %d "
                "frames\n",
                spec.name.c_str(), spec.width, spec.height, spec.fps,
                spec.entropy, spec.frames());
    const auto frames = video::generateVideo(spec);

    // 2. Encode with the medium preset at the chosen quality.
    codec::EncoderParams params = codec::presetParams("medium");
    params.crf = crf;
    codec::Encoder encoder(params, spec.fps);
    codec::EncodeStats stats;
    const auto stream = encoder.encode(frames, &stats);
    std::printf("\nEncoded at crf %d: %zu bytes (%.0f kbps), "
                "PSNR %.2f dB\n",
                crf, stream.size(), stats.bitrate_kbps, stats.psnr);
    std::printf("  frames: %d I, %d P, %d B; macroblocks: %llu skip, "
                "%llu inter16, %llu inter8x8, %llu intra16, %llu "
                "intra4\n",
                stats.i_frames, stats.p_frames, stats.b_frames,
                static_cast<unsigned long long>(stats.mb_skip),
                static_cast<unsigned long long>(stats.mb_inter16),
                static_cast<unsigned long long>(stats.mb_inter8x8),
                static_cast<unsigned long long>(stats.mb_intra16),
                static_cast<unsigned long long>(stats.mb_intra4));

    // 3. Decode and verify the reconstruction quality independently.
    const auto decoded = codec::decode(stream);
    std::printf("\nDecoded %zu frames; measured PSNR vs source: %.2f "
                "dB\n",
                decoded.frames.size(),
                video::sequencePsnr(frames, decoded.frames));

    // 4. Transcode to a smaller rendition under the simulated CPU.
    core::RunConfig run;
    run.video = video;
    run.seconds = 1.0;
    run.params = codec::presetParams("medium");
    run.params.crf = crf + 8; // a smaller delivery rendition
    run.core = uarch::baselineConfig();
    const auto result = core::runInstrumented(run);
    const auto td = result.core.topdown();

    std::printf("\nTranscode to crf %d on the simulated baseline core:\n",
                run.params.crf);
    std::printf("  %.1fM instructions, %.1fM cycles (IPC %.2f), "
                "simulated time %.1f ms\n",
                result.core.instructions / 1e6, result.core.cycles / 1e6,
                result.core.ipc(), result.transcode_seconds * 1000.0);
    std::printf("  Top-down: retiring %.1f%%, front-end %.1f%%, bad "
                "speculation %.1f%%, back-end %.1f%% (memory %.1f%% + "
                "core %.1f%%)\n",
                td.retiring * 100, td.frontend * 100,
                td.bad_speculation * 100, td.backend() * 100,
                td.backend_memory * 100, td.backend_core * 100);
    std::printf("  MPKI: branch %.2f, L1d %.2f, L2 %.2f, L3 %.2f, L1i "
                "%.2f\n",
                result.core.branchMpki(), result.core.l1dMpki(),
                result.core.l2Mpki(), result.core.l3Mpki(),
                result.core.l1iMpki());
    std::printf("  Output: %.0f kbps at %.2f dB\n", result.bitrate_kbps,
                result.psnr);
    return 0;
}
