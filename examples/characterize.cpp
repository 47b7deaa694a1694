/**
 * @file
 * Characterize one transcoding operation the way the paper does with
 * VTune + perf (§III-B): pick a video, transcoding parameters, and a
 * machine configuration; get the Top-down breakdown, event rates, and
 * transcoding metrics.
 *
 *   ./build/examples/characterize --video hall --crf 30 --refs 8 \
 *       --preset slow --config be_op1 [--seconds 2]
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

    core::RunConfig run;
    run.video = cli.str("video", "cricket");
    run.seconds = cli.real("seconds", 1.0);
    run.params = codec::presetParams(cli.str("preset", "medium"));
    run.params.crf = static_cast<int>(cli.num("crf", 23));
    run.params.refs = static_cast<int>(cli.num("refs", 3));
    run.core = uarch::configByName(cli.str("config", "baseline"));
    cli.rejectUnknown();
    run.params.validate();

    const auto& spec = video::findVideo(run.video);
    std::printf("workload: %s (%dx%d, entropy %.1f), preset %s, crf %d, "
                "refs %d\n",
                run.video.c_str(), spec.width, spec.height, spec.entropy,
                run.params.preset.c_str(), run.params.crf,
                run.params.refs);
    std::printf("machine:  %s (L1d %uK, L1i %uK, L2 %uK, L3 %uK%s, ROB "
                "%d, RS %d, %s predictor)\n\n",
                run.core.name.c_str(), run.core.l1d.size_bytes / 1024,
                run.core.l1i.size_bytes / 1024,
                run.core.l2.size_bytes / 1024,
                run.core.l3.size_bytes / 1024,
                run.core.l4_size
                    ? (", L4 " + std::to_string(run.core.l4_size / 1024)
                       + "K")
                          .c_str()
                    : "",
                run.core.rob_size, run.core.rs_size,
                run.core.predictor.c_str());

    const auto result = core::runInstrumented(run);
    const auto& s = result.core;
    const auto td = s.topdown();

    Table summary({"metric", "value"});
    auto row = [&](const std::string& name, const std::string& value) {
        summary.beginRow();
        summary.cell(name);
        summary.cell(value);
    };
    row("simulated transcode time",
        formatDouble(result.transcode_seconds * 1000.0, 3) + " ms");
    row("instructions", formatDouble(s.instructions / 1e6, 2) + " M");
    row("cycles", formatDouble(s.cycles / 1e6, 2) + " M");
    row("IPC", formatDouble(s.ipc(), 3));
    row("output bitrate",
        formatDouble(result.bitrate_kbps, 1) + " kbps");
    row("output PSNR", formatDouble(result.psnr, 2) + " dB");
    std::printf("%s\n", summary.toText().c_str());

    Table topdown({"top-down category", "pipeline slots"});
    auto trow = [&](const std::string& name, double fraction) {
        topdown.beginRow();
        topdown.cell(name);
        topdown.cell(formatPercent(fraction, 1));
    };
    trow("retiring", td.retiring);
    trow("front-end bound", td.frontend);
    trow("bad speculation", td.bad_speculation);
    trow("back-end bound (memory)", td.backend_memory);
    trow("back-end bound (core)", td.backend_core);
    std::printf("%s\n", topdown.toText().c_str());

    Table events({"event", "rate"});
    auto erow = [&](const std::string& name, double v,
                    const std::string& unit) {
        events.beginRow();
        events.cell(name);
        events.cell(formatDouble(v, 3) + " " + unit);
    };
    erow("branch mispredicts", s.branchMpki(), "MPKI");
    erow("L1d misses", s.l1dMpki(), "MPKI");
    erow("L2 misses (data)", s.l2Mpki(), "MPKI");
    erow("L3 misses (data)", s.l3Mpki(), "MPKI");
    erow("L1i misses", s.l1iMpki(), "MPKI");
    erow("iTLB misses", 1000.0 * s.itlb_misses / s.instructions, "MPKI");
    erow("ROB stalls", s.robStallsPki(), "cycles/KI");
    erow("RS stalls", s.rsStallsPki(), "cycles/KI");
    erow("SB stalls", s.sbStallsPki(), "cycles/KI");
    std::printf("%s", events.toText().c_str());
    return 0;
}
