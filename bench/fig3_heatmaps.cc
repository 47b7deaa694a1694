/**
 * @file
 * Regenerates paper Figure 3: heatmaps of front-end, back-end, and bad
 * speculation bound pipeline slots (%) over the crf x refs grid.
 * Default: 88-point subsampled grid; --full runs all 816 combinations.
 */

#include <cstdio>
#include <functional>

#include "bench/benchutil.h"
#include "common/heatmap.h"
#include "core/studies.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    const Cli cli(argc, argv);
    const auto options = bench::parseBenchOptions(cli);
    cli.rejectUnknown();

    bench::banner("Figure 3: FE / BE / BS bound pipeline slots (%)");
    std::printf("video=%s, %zu x %zu grid, %.2fs clips, %d job(s)\n",
                options.study.video.c_str(), options.crf_grid.size(),
                options.refs_grid.size(), options.study.seconds,
                core::resolveJobs(options.study.jobs));

    core::SweepStats stats;
    const auto points = core::parallelCrfRefsSweep(options.crf_grid,
                                                   options.refs_grid,
                                                   options.study, &stats);

    std::vector<std::string> rows;
    for (int crf : options.crf_grid) {
        rows.push_back("crf" + std::to_string(crf));
    }
    std::vector<std::string> cols;
    for (int refs : options.refs_grid) {
        cols.push_back(std::to_string(refs));
    }

    struct Panel
    {
        const char* title;
        std::function<double(const core::RunResult&)> value;
    };
    const Panel panels[] = {
        {"(a) Front-end bound (%)",
         [](const core::RunResult& r) {
             return r.core.topdown().frontend * 100.0;
         }},
        {"(b) Back-end bound (%)",
         [](const core::RunResult& r) {
             return r.core.topdown().backend() * 100.0;
         }},
        {"(c) Bad speculation bound (%)",
         [](const core::RunResult& r) {
             return r.core.topdown().bad_speculation * 100.0;
         }},
    };

    for (const auto& panel : panels) {
        Heatmap hm(panel.title, rows, cols);
        size_t i = 0;
        for (size_t r = 0; r < rows.size(); ++r) {
            for (size_t c = 0; c < cols.size(); ++c) {
                hm.set(r, c, panel.value(points[i++].run));
            }
        }
        std::printf("\n%s\nCSV:\n%s", hm.render().c_str(),
                    hm.toCsv().c_str());
    }

    bench::sweepReport(stats);
    bench::observabilityReport(options);
    std::printf(
        "\nPaper Fig 3 expectation: increasing crf and refs reduces "
        "front-end and bad-speculation bound slots and increases "
        "back-end bound slots.\n");
    return 0;
}
