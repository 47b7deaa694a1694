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
    base.core = uarch::baselineConfig();

    bench::banner("Microarchitecture ablation (medium/23/3 on "
                  + base.video + ")");

    Table t({"variant", "time (ms)", "vs base", "FE%", "BS%", "BE-mem%",
             "BE-core%", "L1d MPKI", "L1i MPKI", "br MPKI"});

    double base_seconds = 0.0;
    auto measure = [&](const std::string& name,
                       const uarch::CoreParams& core) {
        core::RunConfig run = base;
        run.core = core;
        const auto r = core::runInstrumented(run);
        const auto td = r.core.topdown();
        if (name == "baseline") {
            base_seconds = r.transcode_seconds;
        }
        t.beginRow();
        t.cell(name);
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
    };

    measure("baseline", uarch::baselineConfig());

    // One knob at a time.
    {
        auto c = uarch::baselineConfig();
        c.l1d.size_bytes *= 2;
        measure("L1d x2", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.l1d.size_bytes /= 2;
        measure("L1d /2", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.l1i.size_bytes *= 2;
        measure("L1i x2", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.l2.size_bytes *= 2;
        measure("L2 x2", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.l3.size_bytes *= 2;
        measure("L3 x2", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.rob_size *= 2;
        measure("ROB x2", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.rs_size *= 2;
        measure("RS x2", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.issue_at_dispatch = true;
        measure("issue@dispatch", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.mshr_entries = 1;
        measure("MSHR=1 (no MLP)", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.mshr_entries = 32;
        measure("MSHR=32", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.predictor = "tage";
        measure("TAGE predictor", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.mispredict_penalty *= 2;
        measure("2x flush penalty", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.itlb_entries *= 4;
        measure("iTLB x4", c);
    }
    {
        auto c = uarch::baselineConfig();
        c.width = 6;
        measure("6-wide dispatch", c);
    }

    std::printf("%sCSV:\n%s", t.toText().c_str(), t.toCsv().c_str());
    std::printf(
        "\nReading guide: each Table IV variant bundles the knobs that "
        "move its target category — fe_op = {L1i x2, iTLB x2}, be_op1 = "
        "{L1d x2, L2 x2, +L4}, be_op2 = {ROB x2, RS x2, "
        "issue@dispatch}, bs_op = {TAGE}.\n");
    return 0;
}
