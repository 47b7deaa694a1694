/**
 * @file
 * Regenerates paper Figure 9 (and prints Table III): the Table III
 * transcoding tasks simulated on the Table IV configurations, comparing
 * the random, smart (one-to-one), and best schedulers.
 */

#include <cstdio>

#include "bench/benchutil.h"
#include "common/table.h"
#include "core/studies.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    Cli cli(argc, argv);
    const double seconds = cli.real("seconds", 1.0);
    const bool verbose = !cli.has("quiet");
    cli.rejectUnknown();
    setVerbose(verbose);

    bench::banner("Table III: transcoding tasks");
    {
        Table t({"Task#", "Video", "crf", "refs", "Preset"});
        int i = 1;
        for (const auto& task : sched::tableIIITasks()) {
            t.beginRow();
            t.cell(static_cast<int64_t>(i++));
            t.cell(task.video);
            t.cell(static_cast<int64_t>(task.crf));
            t.cell(static_cast<int64_t>(task.refs));
            t.cell(task.preset);
        }
        std::printf("%s", t.toText().c_str());
    }

    const auto result = core::schedulerStudy(seconds, verbose);

    bench::banner("Simulated transcoding time per (task, configuration)");
    {
        std::vector<std::string> headers = {"task", "baseline (ms)"};
        for (const auto& n : result.config_names) {
            headers.push_back(n + " (ms)");
        }
        headers.push_back("smart ->");
        headers.push_back("best ->");
        Table t(headers);
        for (size_t i = 0; i < result.tasks.size(); ++i) {
            t.beginRow();
            t.cell(result.tasks[i].video);
            t.cell(result.baseline_seconds[i] * 1000.0, 4);
            for (double s : result.seconds[i]) {
                t.cell(s * 1000.0, 4);
            }
            t.cell(result.config_names[result.smart[i]]);
            t.cell(result.config_names[result.best[i]]);
        }
        std::printf("%sCSV:\n%s", t.toText().c_str(), t.toCsv().c_str());
    }

    bench::banner("Figure 9: scheduler speedup over the baseline uarch");
    {
        Table t({"scheduler", "speedup over baseline", "note"});
        t.beginRow();
        t.cell(std::string("random"));
        t.cell(formatPercent(result.randomSpeedup() - 1.0, 2));
        t.cell(std::string("mean over the four servers per task"));
        t.beginRow();
        t.cell(std::string("smart"));
        t.cell(formatPercent(result.smartSpeedup() - 1.0, 2));
        t.cell(std::string("one-to-one constraint"));
        t.beginRow();
        t.cell(std::string("best"));
        t.cell(formatPercent(result.bestSpeedup() - 1.0, 2));
        t.cell(std::string("per-task best, unconstrained"));
        std::printf("%s", t.toText().c_str());
    }

    const double smart_vs_random =
        result.smartSpeedup() / result.randomSpeedup() - 1.0;
    std::printf("\nsmart vs random: %s better; smart matches best on "
                "%d of %zu tasks (%.0f%%)\n",
                formatPercent(smart_vs_random, 2).c_str(),
                result.smartMatchesBest(), result.tasks.size(),
                100.0 * result.smartMatchesBest() / result.tasks.size());
    std::printf(
        "\nPaper Fig 9 reference: smart beats random by 3.72%% and "
        "matches the best scheduler 75%% of the time; note that two "
        "Table III tasks share the same best server here, capping "
        "matches at 3 of 4 under the one-to-one constraint.\n");
    return 0;
}
