/**
 * @file
 * Regenerates paper Figure 6 (a-d): the ten presets at crf 23, refs 3 —
 * (a) time/bitrate/PSNR, (b) FE/BE/BS bound slots, (c) branch & cache
 * MPKI, (d) resource stalls.
 */

#include <cstdio>

#include "bench/benchutil.h"
#include "common/table.h"
#include "core/studies.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    const Cli cli(argc, argv);
    auto options = bench::parseBenchOptions(cli);
    // The preset ladder's slow end (tesa, refs irrelevant at 3) is heavy;
    // a 720p-class clip keeps placebo tractable by default.
    if (!cli.has("video")) {
        options.study.video = "cricket";
    }
    cli.rejectUnknown();

    bench::banner("Figure 6: the ten presets at crf=23, refs=3");
    std::printf("video=%s, %.2fs clips, %d job(s)\n",
                options.study.video.c_str(), options.study.seconds,
                core::resolveJobs(options.study.jobs));

    core::SweepStats stats;
    const auto results = core::parallelPresetStudy(options.study, &stats);

    std::printf("\n(a) Transcoding time, bitrate, PSNR\n\n");
    Table a({"preset", "time (ms)", "bitrate (kbps)", "PSNR (dB)"});
    for (const auto& r : results) {
        a.beginRow();
        a.cell(r.preset);
        a.cell(r.run.transcode_seconds * 1000.0, 3);
        a.cell(r.run.bitrate_kbps, 1);
        a.cell(r.run.psnr, 2);
    }
    std::printf("%sCSV:\n%s", a.toText().c_str(), a.toCsv().c_str());

    std::printf("\n(b) Pipeline-slot breakdown (%%)\n\n");
    Table b({"preset", "retiring", "front-end", "bad-spec", "BE-memory",
             "BE-core"});
    for (const auto& r : results) {
        const auto td = r.run.core.topdown();
        b.beginRow();
        b.cell(r.preset);
        b.cell(td.retiring * 100.0, 1);
        b.cell(td.frontend * 100.0, 1);
        b.cell(td.bad_speculation * 100.0, 1);
        b.cell(td.backend_memory * 100.0, 1);
        b.cell(td.backend_core * 100.0, 1);
    }
    std::printf("%sCSV:\n%s", b.toText().c_str(), b.toCsv().c_str());

    std::printf("\n(c) Branch and cache MPKI\n\n");
    Table c({"preset", "branch", "L1d", "L2", "L3", "L1i"});
    for (const auto& r : results) {
        c.beginRow();
        c.cell(r.preset);
        c.cell(r.run.core.branchMpki(), 2);
        c.cell(r.run.core.l1dMpki(), 2);
        c.cell(r.run.core.l2Mpki(), 2);
        c.cell(r.run.core.l3Mpki(), 2);
        c.cell(r.run.core.l1iMpki(), 2);
    }
    std::printf("%sCSV:\n%s", c.toText().c_str(), c.toCsv().c_str());

    std::printf("\n(d) Resource stalls (cycles per kilo-instruction)\n\n");
    Table d({"preset", "any", "ROB", "RS", "SB"});
    for (const auto& r : results) {
        d.beginRow();
        d.cell(r.preset);
        d.cell(r.run.core.anyResourceStallsPki(), 2);
        d.cell(r.run.core.robStallsPki(), 2);
        d.cell(r.run.core.rsStallsPki(), 2);
        d.cell(r.run.core.sbStallsPki(), 2);
    }
    std::printf("%sCSV:\n%s", d.toText().c_str(), d.toCsv().c_str());

    bench::sweepReport(stats);
    bench::observabilityReport(options);
    std::printf(
        "\nPaper Fig 6 expectation: time rises along the ladder; "
        "bitrate improves sharply up to veryfast then plateaus; "
        "data-cache MPKI and memory-bound slots fall with slower "
        "presets (higher operational intensity); branch MPKI "
        "fluctuates without a clear direction.\n");
    return 0;
}
