/**
 * @file
 * Regenerates paper Table II: the important encoder options of the ten
 * x264 presets as implemented by this codec.
 */

#include <cstdio>

#include "bench/benchutil.h"
#include "codec/params.h"
#include "common/table.h"

int
main(int argc, char** argv)
{
    using namespace vtrans;
    const Cli cli(argc, argv);
    cli.rejectUnknown();
    setVerbose(false);

    bench::banner("Table II: selection of important options per preset");

    Table t({"Option", "ultrafast", "superfast", "veryfast", "faster",
             "fast", "medium", "slow", "slower", "veryslow", "placebo"});

    auto row = [&](const std::string& name, auto getter) {
        t.beginRow();
        t.cell(name);
        for (const auto& preset : codec::presetNames()) {
            t.cell(getter(codec::presetParams(preset, true)));
        }
    };

    using P = codec::EncoderParams;
    row("aq-mode",
        [](const P& p) { return std::to_string(p.aq_mode); });
    row("b-adapt",
        [](const P& p) { return std::to_string(p.b_adapt); });
    row("bframes",
        [](const P& p) { return std::to_string(p.bframes); });
    row("deblock", [](const P& p) {
        if (!p.deblock) {
            return std::string("off");
        }
        return std::string("[")
            .append(std::to_string(p.deblock_alpha))
            .append(":")
            .append(std::to_string(p.deblock_beta))
            .append("]");
    });
    row("me", [](const P& p) { return codec::toString(p.me); });
    row("merange",
        [](const P& p) { return std::to_string(p.merange); });
    row("partitions", [](const P& p) {
        std::string out;
        if (p.partitions.p8x8) {
            out += "+p8x8";
        }
        if (p.partitions.i4x4) {
            out += "+i4x4";
        }
        if (p.partitions.i8x8) {
            out += "+i8x8";
        }
        return out.empty() ? std::string("none") : out;
    });
    row("refs", [](const P& p) { return std::to_string(p.refs); });
    row("scenecut",
        [](const P& p) { return std::to_string(p.scenecut); });
    row("subme", [](const P& p) { return std::to_string(p.subme); });
    row("trellis",
        [](const P& p) { return std::to_string(p.trellis); });

    std::printf("%s\n", t.toText().c_str());
    std::printf("CSV:\n%s", t.toCsv().c_str());
    return 0;
}
