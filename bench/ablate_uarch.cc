/**
 * @file
 * Microarchitecture ablation: sensitivity of the default transcoding
 * workload to each design choice of the simulated machine — cache sizes,
 * window sizes, MSHR count (memory-level parallelism), branch predictor,
 * and mispredict penalty. This is the ablation study DESIGN.md calls out
 * for the simulator's design parameters: it shows which knob moves which
 * Top-down category, the rationale behind the Table IV variants.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/benchutil.h"
#include "common/table.h"
#include "core/workload.h"
#include "uarch/config.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    Cli cli(argc, argv);
    setVerbose(!cli.has("quiet"));

    core::RunConfig base;
    base.video = cli.str("video", "funny");
    base.seconds = cli.real("seconds", 1.0);
    cli.rejectUnknown();
    base.params = codec::presetParams("medium");

    bench::banner("Microarchitecture ablation (medium/23/3 on "
                  + base.video + ")");

    // One knob at a time against the baseline, all simulated from one
    // codec pass.
    std::vector<std::string> names;
    std::vector<uarch::CoreParams> classes;
    auto knob = [&](const std::string& name, auto change) {
        names.push_back(name);
        classes.push_back(uarch::baselineConfig());
        change(classes.back());
    };
    using P = uarch::CoreParams;
    knob("baseline", [](P&) {});
    knob("L1d x2", [](P& c) { c.l1d.size_bytes *= 2; });
    knob("L1d /2", [](P& c) { c.l1d.size_bytes /= 2; });
    knob("L1i x2", [](P& c) { c.l1i.size_bytes *= 2; });
    knob("L2 x2", [](P& c) { c.l2.size_bytes *= 2; });
    knob("L3 x2", [](P& c) { c.l3.size_bytes *= 2; });
    knob("ROB x2", [](P& c) { c.rob_size *= 2; });
    knob("RS x2", [](P& c) { c.rs_size *= 2; });
    knob("issue@dispatch", [](P& c) { c.issue_at_dispatch = true; });
    knob("MSHR=1 (no MLP)", [](P& c) { c.mshr_entries = 1; });
    knob("MSHR=32", [](P& c) { c.mshr_entries = 32; });
    knob("TAGE predictor", [](P& c) { c.predictor = "tage"; });
    knob("2x flush penalty", [](P& c) { c.mispredict_penalty *= 2; });
    knob("iTLB x4", [](P& c) { c.itlb_entries *= 4; });
    knob("6-wide dispatch", [](P& c) { c.width = 6; });

    const std::vector<core::RunResult> results =
        core::runInstrumented(base, classes);

    Table t({"variant", "time (ms)", "vs base", "FE%", "BS%", "BE-mem%",
             "BE-core%", "L1d MPKI", "L1i MPKI", "br MPKI"});
    const double base_seconds = results[0].transcode_seconds;
    for (size_t i = 0; i < names.size(); ++i) {
        const core::RunResult& r = results[i];
        const auto td = r.core.topdown();
        t.beginRow();
        t.cell(names[i]);
        t.cell(r.transcode_seconds * 1000.0, 3);
        t.cell(base_seconds > 0
                   ? formatPercent(
                         base_seconds / r.transcode_seconds - 1.0, 2)
                   : std::string("-"));
        t.cell(td.frontend * 100.0, 2);
        t.cell(td.bad_speculation * 100.0, 2);
        t.cell(td.backend_memory * 100.0, 2);
        t.cell(td.backend_core * 100.0, 2);
        t.cell(r.core.l1dMpki(), 2);
        t.cell(r.core.l1iMpki(), 2);
        t.cell(r.core.branchMpki(), 2);
    }

    std::printf("%sCSV:\n%s", t.toText().c_str(), t.toCsv().c_str());
    std::printf(
        "\nReading guide: each Table IV variant bundles the knobs that "
        "move its target category — fe_op = {L1i x2, iTLB x2}, be_op1 = "
        "{L1d x2, L2 x2, +L4}, be_op2 = {ROB x2, RS x2, "
        "issue@dispatch}, bs_op = {TAGE}.\n");
    return 0;
}
