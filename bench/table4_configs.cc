/**
 * @file
 * Regenerates paper Table IV: the five microarchitecture configurations
 * of the scheduler study (capacities are scaled per DESIGN.md §5; every
 * relationship between rows matches the paper exactly).
 */

#include <cstdio>

#include "bench/benchutil.h"
#include "common/table.h"
#include "uarch/config.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    const Cli cli(argc, argv);
    cli.rejectUnknown();
    setVerbose(false);

    bench::banner(
        "Table IV: microarchitectural configurations (scaled sizes)");

    Table t({"Config", "L1d", "L1i", "L2", "L3", "L4", "iTLB", "ROB", "RS",
             "issue@dispatch", "branch predictor"});
    for (const auto& p : uarch::tableIVConfigs()) {
        t.beginRow();
        t.cell(p.name);
        t.cell(std::to_string(p.l1d.size_bytes / 1024) + "K");
        t.cell(std::to_string(p.l1i.size_bytes / 1024) + "K");
        t.cell(std::to_string(p.l2.size_bytes / 1024) + "K");
        t.cell(std::to_string(p.l3.size_bytes / 1024) + "K");
        t.cell(p.l4_size > 0 ? std::to_string(p.l4_size / 1024) + "K"
                             : std::string("none"));
        t.cell(static_cast<int64_t>(p.itlb_entries));
        t.cell(static_cast<int64_t>(p.rob_size));
        t.cell(static_cast<int64_t>(p.rs_size));
        t.cell(p.issue_at_dispatch ? "yes" : "no");
        t.cell(p.predictor);
    }
    std::printf("%s\n", t.toText().c_str());
    std::printf("CSV:\n%s", t.toCsv().c_str());
    std::printf(
        "\nNote: capacities are scaled with the 1/12-area videos "
        "(DESIGN.md 5); Table IV relationships (2x L1i/iTLB for fe_op; "
        "2x L1d/L2, L3/2, +L4=2xL3 for be_op1; 2x ROB/RS for be_op2; "
        "TAGE for bs_op) hold exactly.\n");
    return 0;
}
