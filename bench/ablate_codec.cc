/**
 * @file
 * Codec ablation: the cost/benefit of each encoder feature on the
 * speed/quality/size triangle plus the microarchitectural profile —
 * trellis levels, adaptive quantization, deblocking, sub-pel depth,
 * partitions, and B-frames. The design-choice study behind the codec's
 * option surface.
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

    const std::string video = cli.str("video", "cricket");
    const double seconds = cli.real("seconds", 1.0);
    cli.rejectUnknown();

    bench::banner("Codec feature ablation (crf 23 on " + video + ")");

    Table t({"variant", "time (ms)", "kbps", "PSNR", "BS%", "BE%",
             "skip MBs", "i4 MBs"});

    auto measure = [&](const std::string& name,
                       const codec::EncoderParams& params) {
        core::RunConfig run;
        run.video = video;
        run.seconds = seconds;
        run.params = params;
        run.core = uarch::baselineConfig();
        const auto r = core::runInstrumented(run);
        const auto td = r.core.topdown();
        t.beginRow();
        t.cell(name);
        t.cell(r.transcode_seconds * 1000.0, 3);
        t.cell(r.bitrate_kbps, 1);
        t.cell(r.psnr, 2);
        t.cell(td.bad_speculation * 100.0, 2);
        t.cell(td.backend() * 100.0, 2);
        t.cell(static_cast<int64_t>(r.encode.mb_skip));
        t.cell(static_cast<int64_t>(r.encode.mb_intra4));
    };

    const codec::EncoderParams medium = codec::presetParams("medium");
    measure("medium (reference)", medium);

    {
        auto p = medium;
        p.trellis = 0;
        measure("trellis 0", p);
    }
    {
        auto p = medium;
        p.trellis = 2;
        measure("trellis 2", p);
    }
    {
        auto p = medium;
        p.aq_mode = 0;
        measure("no AQ", p);
    }
    {
        auto p = medium;
        p.deblock = false;
        measure("no deblock", p);
    }
    {
        auto p = medium;
        p.subme = 0;
        measure("subme 0 (full-pel)", p);
    }
    {
        auto p = medium;
        p.subme = 11;
        measure("subme 11", p);
    }
    {
        auto p = medium;
        p.partitions = {false, false, false};
        measure("no partitions", p);
    }
    {
        auto p = medium;
        p.bframes = 0;
        measure("no B-frames", p);
    }
    {
        auto p = medium;
        p.bframes = 8;
        p.b_adapt = 0;
        measure("8 B fixed", p);
    }
    {
        auto p = medium;
        p.scenecut = 0;
        measure("no scenecut", p);
    }
    {
        auto p = medium;
        p.me = codec::MeMethod::Esa;
        measure("esa search", p);
    }

    std::printf("%sCSV:\n%s", t.toText().c_str(), t.toCsv().c_str());
    std::printf(
        "\nReading guide: trellis and AQ trade encode time for rate "
        "(bits at equal quality); deblocking costs time and raises "
        "PSNR at low rates; sub-pel depth and partitions buy rate with "
        "ME time; B-frames buy rate with latency and reorder "
        "complexity.\n");
    return 0;
}
