/**
 * @file
 * Differential µarch report comparator: loads two HotspotReport JSON
 * exports (`--uarch-report-out` / `--hotspots-out` artifacts) and prints
 * where the cycles moved — per kernel family, site prefix, and code
 * site — answering "where did the AVX2 kernels / preset change / layout
 * pass win?" in one command.
 *
 *   ./build/tools/uarch_diff baseline.json candidate.json [--limit N]
 *
 * Exit status: 0 on success, 1 on usage or parse errors. Deltas are
 * candidate minus baseline, sorted by |cycle delta|.
 */

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "obs/diff.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;

    Cli cli(argc, argv);
    const std::vector<std::string>& paths = cli.positional();
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "usage: uarch_diff <baseline.json> <candidate.json> "
                     "[--limit N]\n");
        return 1;
    }
    const int64_t limit_flag = cli.num("limit", 12);
    cli.rejectUnknown();
    const size_t limit =
        limit_flag <= 0 ? 12 : static_cast<size_t>(limit_flag);

    obs::ReportData baseline;
    obs::ReportData candidate;
    std::string error;
    if (!obs::loadReport(paths[0], &baseline, &error)) {
        std::fprintf(stderr, "uarch_diff: %s: %s\n", paths[0].c_str(),
                     error.c_str());
        return 1;
    }
    if (!obs::loadReport(paths[1], &candidate, &error)) {
        std::fprintf(stderr, "uarch_diff: %s: %s\n", paths[1].c_str(),
                     error.c_str());
        return 1;
    }

    std::printf("baseline:  %s\ncandidate: %s\n\n", paths[0].c_str(),
                paths[1].c_str());
    std::printf("%s\n",
                obs::diffTable(obs::diffReports(baseline, candidate), limit)
                    .c_str());
    return 0;
}
