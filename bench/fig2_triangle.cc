/**
 * @file
 * Regenerates paper Figure 2: the transcoding speed / video quality /
 * file size triangle. Measures the sign of each crf and refs effect on
 * the three metrics and prints the measured triangle, marking active
 * (intended) vs passive (side-effect) edges as the paper does.
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
    // Only four points are measured, so afford longer clips by default:
    // the refs -> size effect needs enough anchor frames to show.
    if (!cli.has("seconds")) {
        options.study.seconds = 2.5;
    }
    cli.rejectUnknown();

    bench::banner("Figure 2: speed / quality / size triangle");

    // Measure the four corners needed to sign the six edges.
    core::StudyOptions study = options.study;
    core::SweepStats stats;
    const auto points =
        core::parallelCrfRefsSweep({18, 36}, {1, 8}, study, &stats);

    auto at = [&](int crf, int refs) -> const core::RunResult& {
        for (const auto& p : points) {
            if (p.crf == crf && p.refs == refs) {
                return p.run;
            }
        }
        VT_FATAL("missing sweep point");
    };

    const auto& base = at(18, 1);
    const auto& more_crf = at(36, 1);
    const auto& more_refs = at(18, 8);

    Table t({"Increase", "Transcoding time", "Quality (PSNR)",
             "File size (bitrate)", "Kind"});
    auto sign = [](double delta, double tol) {
        return delta > tol ? "+ (increases)"
               : delta < -tol ? "- (decreases)"
                              : "~ (neutral)";
    };
    t.beginRow();
    t.cell(std::string("crf"));
    t.cell(std::string(sign(more_crf.transcode_seconds
                                - base.transcode_seconds,
                            0.0)));
    t.cell(std::string(sign(more_crf.psnr - base.psnr, 0.05)));
    t.cell(std::string(sign(more_crf.bitrate_kbps - base.bitrate_kbps,
                            0.5)));
    t.cell(std::string("quality active; time/size passive"));
    t.beginRow();
    t.cell(std::string("refs"));
    t.cell(std::string(sign(more_refs.transcode_seconds
                                - base.transcode_seconds,
                            0.0)));
    t.cell(std::string(sign(more_refs.psnr - base.psnr, 0.05)));
    t.cell(std::string(sign(more_refs.bitrate_kbps - base.bitrate_kbps,
                            0.5)));
    t.cell(std::string("size active; time passive"));
    std::printf("%s\n", t.toText().c_str());

    std::printf("Measured values (video=%s):\n",
                options.study.video.c_str());
    Table v({"crf", "refs", "time (ms)", "PSNR (dB)", "bitrate (kbps)"});
    for (const auto& p : points) {
        v.beginRow();
        v.cell(static_cast<int64_t>(p.crf));
        v.cell(static_cast<int64_t>(p.refs));
        v.cell(p.run.transcode_seconds * 1000.0, 3);
        v.cell(p.run.psnr, 2);
        v.cell(p.run.bitrate_kbps, 1);
    }
    std::printf("%s\nCSV:\n%s", v.toText().c_str(), v.toCsv().c_str());

    bench::sweepReport(stats);
    bench::observabilityReport(options);
    std::printf(
        "\nPaper Fig 2 expectation: crf+ -> quality-, time-, size-;\n"
        "refs+ -> size-, time+, quality unchanged.\n");
    return 0;
}
