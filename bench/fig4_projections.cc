/**
 * @file
 * Regenerates paper Figure 4: projection A (PSNR vs bitrate, one line per
 * crf as refs varies — line length shows the benefit of refs) and
 * projection B (transcoding time vs refs per crf — the elbow of
 * diminishing returns).
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
    // Projections need few crf lines but the full refs axis.
    if (!cli.has("full") && !cli.has("coarse")) {
        options.crf_grid = {6, 16, 26, 36, 46};
    }
    cli.rejectUnknown();

    bench::banner("Figure 4: projections A and B");
    core::SweepStats stats;
    const auto points = core::parallelCrfRefsSweep(options.crf_grid,
                                                   options.refs_grid,
                                                   options.study, &stats);

    std::printf("Projection A: quality (PSNR) vs file size (bitrate); "
                "one line per crf, points along refs\n\n");
    Table a({"crf", "refs", "bitrate (kbps)", "PSNR (dB)"});
    for (const auto& p : points) {
        a.beginRow();
        a.cell(static_cast<int64_t>(p.crf));
        a.cell(static_cast<int64_t>(p.refs));
        a.cell(p.run.bitrate_kbps, 1);
        a.cell(p.run.psnr, 2);
    }
    std::printf("%sCSV:\n%s", a.toText().c_str(), a.toCsv().c_str());

    // Line length of projection A per crf: bitrate range across refs.
    std::printf("\nLine lengths (bitrate range across refs; longer = "
                "more benefit from refs):\n");
    Table len({"crf", "max kbps", "min kbps", "range (kbps)",
               "range (%)"});
    for (int crf : options.crf_grid) {
        double lo = 1e18;
        double hi = 0.0;
        for (const auto& p : points) {
            if (p.crf == crf) {
                lo = std::min(lo, p.run.bitrate_kbps);
                hi = std::max(hi, p.run.bitrate_kbps);
            }
        }
        len.beginRow();
        len.cell(static_cast<int64_t>(crf));
        len.cell(hi, 1);
        len.cell(lo, 1);
        len.cell(hi - lo, 2);
        len.cell((hi - lo) / hi * 100.0, 2);
    }
    std::printf("%s", len.toText().c_str());

    std::printf("\nProjection B: transcoding time vs refs, per crf\n\n");
    Table b({"crf", "refs", "time (ms)", "vs refs=1"});
    for (int crf : options.crf_grid) {
        double base = 0.0;
        for (const auto& p : points) {
            if (p.crf != crf) {
                continue;
            }
            if (base == 0.0) {
                base = p.run.transcode_seconds;
            }
            b.beginRow();
            b.cell(static_cast<int64_t>(crf));
            b.cell(static_cast<int64_t>(p.refs));
            b.cell(p.run.transcode_seconds * 1000.0, 3);
            b.cell(std::string("x").append(
                formatDouble(p.run.transcode_seconds / base, 3)));
        }
    }
    std::printf("%sCSV:\n%s", b.toText().c_str(), b.toCsv().c_str());

    bench::sweepReport(stats);
    bench::observabilityReport(options);
    std::printf(
        "\nPaper Fig 4 expectation: low crf lines are longer (low crf "
        "benefits more from refs); time grows with refs with an elbow "
        "of diminishing returns; high crf flattens the time line.\n");
    return 0;
}
