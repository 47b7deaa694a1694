/**
 * @file
 * Regenerates paper Figure 7 (a-c): all vbench videos at the medium
 * preset (crf 23, refs 3), grouped by resolution class and ordered by
 * entropy — (a) FE/BE/BS slots, (b) branch & cache MPKI, (c) resource
 * stalls.
 */

#include <algorithm>
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
    cli.rejectUnknown();

    bench::banner("Figure 7: across vbench videos (medium, crf=23, refs=3)");
    std::printf("%.2fs clips, %d job(s)\n", options.study.seconds,
                core::resolveJobs(options.study.jobs));

    core::SweepStats stats;
    auto results = core::parallelVideoStudy(options.study, &stats);
    // Paper ordering: group by resolution class, entropy ascending within.
    std::stable_sort(results.begin(), results.end(),
                     [](const core::VideoResult& a,
                        const core::VideoResult& b) {
                         if (a.resolution_class != b.resolution_class) {
                             return a.resolution_class
                                    < b.resolution_class;
                         }
                         return a.entropy < b.entropy;
                     });

    std::printf("\n(a) Pipeline-slot breakdown (%%)\n\n");
    Table a({"video", "class", "entropy", "retiring", "front-end",
             "bad-spec", "back-end"});
    for (const auto& r : results) {
        const auto td = r.run.core.topdown();
        a.beginRow();
        a.cell(r.video);
        a.cell(r.resolution_class);
        a.cell(r.entropy, 1);
        a.cell(td.retiring * 100.0, 1);
        a.cell(td.frontend * 100.0, 1);
        a.cell(td.bad_speculation * 100.0, 1);
        a.cell(td.backend() * 100.0, 1);
    }
    std::printf("%sCSV:\n%s", a.toText().c_str(), a.toCsv().c_str());

    std::printf("\n(b) Branch and cache MPKI\n\n");
    Table b({"video", "entropy", "branch", "L1d", "L2", "L3", "L1i"});
    for (const auto& r : results) {
        b.beginRow();
        b.cell(r.video);
        b.cell(r.entropy, 1);
        b.cell(r.run.core.branchMpki(), 2);
        b.cell(r.run.core.l1dMpki(), 2);
        b.cell(r.run.core.l2Mpki(), 2);
        b.cell(r.run.core.l3Mpki(), 2);
        b.cell(r.run.core.l1iMpki(), 2);
    }
    std::printf("%sCSV:\n%s", b.toText().c_str(), b.toCsv().c_str());

    std::printf("\n(c) Resource stalls (cycles per kilo-instruction)\n\n");
    Table c({"video", "entropy", "any", "ROB", "RS", "SB"});
    for (const auto& r : results) {
        c.beginRow();
        c.cell(r.video);
        c.cell(r.entropy, 1);
        c.cell(r.run.core.anyResourceStallsPki(), 2);
        c.cell(r.run.core.robStallsPki(), 2);
        c.cell(r.run.core.rsStallsPki(), 2);
        c.cell(r.run.core.sbStallsPki(), 2);
    }
    std::printf("%sCSV:\n%s", c.toText().c_str(), c.toCsv().c_str());

    bench::sweepReport(stats);
    bench::observabilityReport(options);
    std::printf(
        "\nPaper Fig 7 expectation: within a resolution group, higher "
        "entropy raises front-end and bad-speculation bound slots "
        "(branch MPKI follows bad speculation) and lowers back-end "
        "bound slots; cache MPKI follows the memory-bound component.\n");
    return 0;
}
