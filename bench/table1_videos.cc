/**
 * @file
 * Regenerates paper Table I: the vbench video corpus — names, (scaled)
 * resolutions, frame rates and entropy — plus measured content statistics
 * of our synthetic stand-ins demonstrating that the entropy ordering is
 * realized (spatial complexity and temporal change grow with entropy).
 */

#include <cstdio>

#include "bench/benchutil.h"
#include "common/table.h"
#include "video/generate.h"
#include "video/quality.h"
#include "video/vbench.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    const Cli cli(argc, argv);
    cli.rejectUnknown();
    setVerbose(false);

    bench::banner("Table I: vbench videos (scaled corpus)");

    Table t({"Short Name", "Class", "Scaled Res", "FPS", "Entropy",
             "SpatialCplx", "TemporalMSE"});
    for (const auto& spec : video::vbenchCorpus()) {
        // Measure the realized complexity of the synthetic stand-in on a
        // short prefix of the clip.
        video::VideoSpec probe = spec;
        probe.seconds = 0.5;
        const auto frames = video::generateVideo(probe);
        double temporal = 0.0;
        for (size_t i = 1; i < frames.size(); ++i) {
            temporal += video::planeMse(frames[i], frames[i - 1],
                                        video::Plane::Y);
        }
        temporal /= frames.size() - 1;

        t.beginRow();
        t.cell(spec.name);
        t.cell(spec.resolution_class);
        t.cell(std::to_string(spec.width) + "x"
               + std::to_string(spec.height));
        t.cell(static_cast<int64_t>(spec.fps));
        t.cell(spec.entropy, 1);
        t.cell(video::spatialComplexity(frames[0]), 1);
        t.cell(temporal, 1);
    }
    std::printf("%s\n", t.toText().c_str());
    std::printf("CSV:\n%s", t.toCsv().c_str());
    return 0;
}
