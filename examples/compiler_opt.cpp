/**
 * @file
 * The full compiler-optimization pipeline of paper §III-D1 on one video:
 *
 *   1. Profile: transcode training inputs under the profile collector
 *      (AutoFDO's `perf record` stage).
 *   2. Optimize: apply Pettis-Hansen relayout + branch-polarity flips
 *      (recompiling with the profile), and separately enable the
 *      Graphite-style loop restructurings.
 *   3. Measure: simulate the same transcode before/after each
 *      optimization and report where the cycles went. Each optimized
 *      build is a `RunConfig::binary` value of its own run.
 *
 *   ./build/examples/compiler_opt [--video landscape] [--seconds 1]
 */

#include <cstdio>

#include "codec/transcode.h"
#include "common/cli.h"
#include "core/workload.h"
#include "layout/profile.h"
#include "layout/relayout.h"
#include "trace/probe.h"
#include "uarch/config.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    Cli cli(argc, argv);
    setVerbose(false);
    const std::string video = cli.str("video", "landscape");
    const double seconds = cli.real("seconds", 1.0);
    cli.rejectUnknown();

    core::RunConfig run;
    run.video = video;
    run.seconds = seconds;
    run.params = codec::presetParams("medium");
    run.core = uarch::baselineConfig();

    auto report = [](const char* label, const core::RunResult& r) {
        const auto td = r.core.topdown();
        std::printf("%-22s %8.3f ms | FE %5.2f%%  BS %5.2f%%  BE "
                    "%5.2f%% | L1i %5.2f  L1d %5.2f MPKI | taken-branch "
                    "bubbles via BTB misses: %llu\n",
                    label, r.transcode_seconds * 1000.0,
                    td.frontend * 100, td.bad_speculation * 100,
                    td.backend() * 100, r.core.l1iMpki(),
                    r.core.l1dMpki(),
                    static_cast<unsigned long long>(r.core.btb_misses));
    };

    // Baseline measurement.
    const auto baseline = core::runInstrumented(run);
    report("baseline", baseline);

    // --- AutoFDO-style: profile, relayout, re-measure ----------------
    std::printf("\ncollecting training profile (transcoding %s + bbb "
                "with perf-style instrumentation)...\n",
                video.c_str());
    layout::ProfileCollector profile;
    trace::setSink(&profile);
    for (const char* training : {video.c_str(), "bbb"}) {
        const auto& source = core::mezzanine(training, seconds);
        trace::arena().reset();
        codec::transcode(source, run.params);
    }
    trace::setSink(nullptr);

    const auto relayout = layout::applyProfileGuidedLayout(profile);
    std::printf("%s\n", layout::describe(relayout).c_str());

    core::RunConfig fdo_run = run;
    fdo_run.binary.layout = relayout.layout;
    const auto fdo = core::runInstrumented(fdo_run);
    report("profile-guided layout", fdo);
    std::printf("  -> speedup %.2f%%\n",
                (baseline.transcode_seconds / fdo.transcode_seconds - 1.0)
                    * 100.0);

    // --- Graphite-style: loop restructuring --------------------------
    std::printf("\nenabling loop restructurings (deblock interchange + "
                "lookahead fusion)...\n");
    core::RunConfig graphite_run = run;
    graphite_run.binary.loops = {true, true};
    const auto graphite = core::runInstrumented(graphite_run);
    report("loop restructuring", graphite);
    std::printf("  -> speedup %.2f%%\n",
                (baseline.transcode_seconds / graphite.transcode_seconds
                 - 1.0)
                    * 100.0);

    // --- Both together ------------------------------------------------
    core::RunConfig both_run = fdo_run;
    both_run.binary.loops = {true, true};
    const auto both = core::runInstrumented(both_run);
    report("both combined", both);
    std::printf("  -> speedup %.2f%%\n",
                (baseline.transcode_seconds / both.transcode_seconds
                 - 1.0)
                    * 100.0);
    return 0;
}
