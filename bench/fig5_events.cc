/**
 * @file
 * Regenerates paper Figure 5 (a-h): heatmaps over the crf x refs grid of
 * (a) branch MPKI, (b-d) L1/L2/L3 data-cache MPKI, and (e-h) resource
 * stalls per kilo-instruction (any / ROB / RS / SB).
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

    bench::banner(
        "Figure 5: microarchitectural event rates over crf x refs");
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
        std::function<double(const uarch::CoreStats&)> value;
    };
    const Panel panels[] = {
        {"(a) Branch MPKI",
         [](const uarch::CoreStats& s) { return s.branchMpki(); }},
        {"(b) L1d MPKI",
         [](const uarch::CoreStats& s) { return s.l1dMpki(); }},
        {"(c) L2 MPKI",
         [](const uarch::CoreStats& s) { return s.l2Mpki(); }},
        {"(d) L3 MPKI",
         [](const uarch::CoreStats& s) { return s.l3Mpki(); }},
        {"(e) Resource stalls - Any (cycles/KI)",
         [](const uarch::CoreStats& s) {
             return s.anyResourceStallsPki();
         }},
        {"(f) Resource stalls - ROB (cycles/KI)",
         [](const uarch::CoreStats& s) { return s.robStallsPki(); }},
        {"(g) Resource stalls - RS (cycles/KI)",
         [](const uarch::CoreStats& s) { return s.rsStallsPki(); }},
        {"(h) Resource stalls - SB (cycles/KI)",
         [](const uarch::CoreStats& s) { return s.sbStallsPki(); }},
    };

    for (const auto& panel : panels) {
        Heatmap hm(panel.title, rows, cols);
        size_t i = 0;
        for (size_t r = 0; r < rows.size(); ++r) {
            for (size_t c = 0; c < cols.size(); ++c) {
                hm.set(r, c, panel.value(points[i++].run.core));
            }
        }
        std::printf("\n%s\nCSV:\n%s", hm.render().c_str(),
                    hm.toCsv().c_str());
    }

    bench::sweepReport(stats);
    bench::observabilityReport(options);
    std::printf(
        "\nPaper Fig 5 expectation: branch MPKI decreases as crf/refs "
        "increase; data-cache MPKI and ROB/RS stalls deteriorate "
        "(increase); SB stalls increase with crf but decrease with "
        "refs (better compression -> fewer stores).\n");
    return 0;
}
