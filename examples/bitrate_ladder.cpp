/**
 * @file
 * The canonical cloud-transcoding workload from the paper's introduction:
 * one uploaded mezzanine transcoded into a ladder of delivery renditions
 * (different quality targets for different network conditions), with the
 * CPU cost of each rung measured on the simulated baseline machine.
 *
 *   ./build/examples/bitrate_ladder [--video girl] [--seconds 1.5]
 */

#include <cstdio>

#include "common/cli.h"
#include "common/table.h"
#include "core/workload.h"
#include "uarch/config.h"
#include "video/vbench.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    Cli cli(argc, argv);
    setVerbose(false);
    const std::string video = cli.str("video", "girl");
    const double seconds = cli.real("seconds", 1.0);
    cli.rejectUnknown();

    const auto& spec = video::findVideo(video);
    std::printf("Upload: '%s' (%s class, entropy %.1f) -> %d-rung "
                "delivery ladder\n\n",
                spec.name.c_str(), spec.resolution_class.c_str(),
                spec.entropy, 5);

    // The rung definitions: quality-targeted CRF encodes from premium to
    // data-saver, the faster presets on the cheap rungs as providers do.
    struct Rung
    {
        const char* name;
        int crf;
        const char* preset;
    };
    const Rung ladder[] = {
        {"premium", 18, "slow"},    {"high", 23, "medium"},
        {"standard", 28, "medium"}, {"low", 34, "fast"},
        {"data-saver", 40, "veryfast"},
    };

    Table t({"rung", "preset", "crf", "kbps", "PSNR (dB)",
             "CPU time (ms)", "cycles/pixel"});
    double total_seconds = 0.0;
    for (const auto& rung : ladder) {
        core::RunConfig run;
        run.video = video;
        run.seconds = seconds;
        run.params = codec::presetParams(rung.preset);
        run.params.crf = rung.crf;
        run.core = uarch::baselineConfig();
        const auto r = core::runInstrumented(run);
        total_seconds += r.transcode_seconds;

        const double pixels = static_cast<double>(spec.width)
                              * spec.height * spec.fps * seconds;
        t.beginRow();
        t.cell(std::string(rung.name));
        t.cell(std::string(rung.preset));
        t.cell(static_cast<int64_t>(rung.crf));
        t.cell(r.bitrate_kbps, 1);
        t.cell(r.psnr, 2);
        t.cell(r.transcode_seconds * 1000.0, 3);
        t.cell(r.core.cycles / pixels, 1);
    }
    std::printf("%s\n", t.toText().c_str());
    std::printf("Total ladder CPU time: %.3f ms of simulated compute "
                "per %.1f s of content (x%.1f realtime on one core)\n",
                total_seconds * 1000.0, seconds,
                seconds / total_seconds);
    std::printf("\nEvery uploaded video pays this cost at least once "
                "(paper §II: >500 hours uploaded to YouTube per "
                "minute) — the motivation for the paper's few-percent "
                "optimizations.\n");
    return 0;
}
