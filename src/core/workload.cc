#include "core/workload.h"

#include <map>
#include <mutex>

#include "codec/transcode.h"
#include "common/status.h"
#include "obs/hotspots.h"
#include "obs/spans.h"
#include "obs/uarch.h"
#include "trace/probe.h"
#include "video/vbench.h"

namespace vtrans::core {

namespace {

/** Applies the process-wide obs toggles to each class's core
 *  parameters: global hotspots/attribution (one flag) enables
 *  CoreParams::attribute_sites, and a global phase window fills in a
 *  zero per-run one. */
std::vector<uarch::CoreParams>
effectiveCoreParams(std::vector<uarch::CoreParams> classes)
{
    for (uarch::CoreParams& params : classes) {
        params.attribute_sites =
            params.attribute_sites || obs::uarchAttributionEnabled();
        if (params.phase_window == 0) {
            params.phase_window = obs::phaseWindow();
        }
    }
    return classes;
}

/** Counter-track label identifying the run in the phase time-series. */
std::string
phaseLabel(const RunConfig& config)
{
    return config.video + " crf" + std::to_string(config.params.crf) + " r"
           + std::to_string(config.params.refs);
}

/** Post-finish() obs export, class by class in list order: fold per-site
 *  attribution into the global report and render phase samples as
 *  counter events on the global tracer. Must run after finish() — the
 *  drain charges cycles. */
void
exportModelObservability(const uarch::CoreModel& model,
                         const RunConfig& config)
{
    for (size_t c = 0; c < model.classCount(); ++c) {
        if (model.attributionEnabled(c)) {
            obs::mergeAttribution(&obs::hotspotReport(), model, c);
        }
        if (!model.phaseSamples(c).empty()) {
            obs::emitPhaseCounters(obs::globalTracer(), model,
                                   phaseLabel(config), c);
        }
    }
}

/**
 * Runs `work` on this thread as the configured binary, simulated on every
 * class of `classes`, and returns one result per class: `work` returns
 * the part they share, and each adds its class's CoreStats and simulated
 * time. The simulated heap is reset first, so results are exactly
 * reproducible whatever ran before.
 */
template <typename Work>
std::vector<RunResult>
simulate(const RunConfig& config,
         const std::vector<uarch::CoreParams>& classes, Work work)
{
    trace::arena().reset();
    const codec::BuildScope build(config.binary.loops,
                                  config.binary.kernels);
    uarch::CoreModel model(effectiveCoreParams(classes),
                           config.binary.layout);
    trace::setSink(&model);
    const RunResult shared = work();
    trace::setSink(nullptr); // Delivers the pending batch.

    model.finish();
    exportModelObservability(model, config);
    std::vector<RunResult> results(model.classCount(), shared);
    for (size_t c = 0; c < results.size(); ++c) {
        results[c].core = model.stats(c);
        results[c].transcode_seconds = results[c].core.seconds();
    }
    return results;
}

} // namespace

const std::vector<uint8_t>&
mezzanine(const std::string& video, double seconds)
{
    // Shared across farm worker threads: the whole lookup-or-build is
    // mutex-guarded (map node references stay valid after later inserts,
    // so callers may keep the returned reference lock-free).
    static std::mutex mu;
    static std::map<std::pair<std::string, int>, std::vector<uint8_t>>
        cache;
    std::lock_guard<std::mutex> lock(mu);
    const int centi = static_cast<int>(seconds * 100.0 + 0.5);
    const auto key = std::make_pair(video, centi);
    auto it = cache.find(key);
    if (it != cache.end()) {
        return it->second;
    }

    video::VideoSpec spec = video::findVideo(video);
    if (seconds > 0.0) {
        spec.seconds = seconds;
    }
    VT_INFORM("building mezzanine for ", video, " (", spec.seconds, "s, ",
              spec.width, "x", spec.height, ")");
    auto stream = codec::makeSourceStream(spec);
    return cache.emplace(key, std::move(stream)).first->second;
}

RunResult
runInstrumented(const RunConfig& config)
{
    return std::move(runInstrumented(config, {config.core}).front());
}

std::vector<RunResult>
runInstrumented(const RunConfig& config,
                const std::vector<uarch::CoreParams>& classes)
{
    const auto& source = config.input != nullptr
                             ? *config.input
                             : mezzanine(config.video, config.seconds);
    return simulate(config, classes, [&] {
        codec::TranscodeResult transcoded =
            codec::transcode(source, config.params);
        RunResult shared;
        shared.encode = transcoded.stats;
        shared.psnr = transcoded.psnr();
        shared.bitrate_kbps = transcoded.bitrateKbps();
        if (config.keep_output) {
            shared.output = std::move(transcoded.output);
        }
        return shared;
    });
}

codec::EncodeStats
runNative(const RunConfig& config)
{
    const auto& source = config.input != nullptr
                             ? *config.input
                             : mezzanine(config.video, config.seconds);
    trace::arena().reset();
    const codec::BuildScope build(config.binary.loops,
                                  config.binary.kernels);
    codec::TranscodeResult transcoded =
        codec::transcode(source, config.params);
    return transcoded.stats;
}

std::vector<RunResult>
runInstrumentedChunk(
    const std::vector<const std::vector<uint8_t>*>& slices,
    const RunConfig& config, const std::vector<uarch::CoreParams>& classes)
{
    VT_ASSERT(!slices.empty(), "chunk run with no slices");
    return simulate(config, classes, [&] {
        // Each slice is an independent closed-GOP transcode (its own
        // encoder state) — the segment-atom contract that makes the
        // stitched stream independent of how segments are grouped into
        // chunks.
        std::vector<codec::TranscodeResult> parts;
        parts.reserve(slices.size());
        for (const auto* slice : slices) {
            parts.push_back(codec::transcode(*slice, config.params));
        }
        // The in-chunk remux is part of the chunk's work and is itself
        // instrumented (the bitstream reader/writer trace their traffic).
        std::vector<const std::vector<uint8_t>*> outputs;
        outputs.reserve(parts.size());
        for (const auto& part : parts) {
            outputs.push_back(&part.output);
        }
        RunResult shared;
        shared.output = chunk::stitch(outputs);

        // Aggregate the per-slice encode statistics (frame-weighted means
        // for the rates, plain sums for the counters).
        int total_frames = 0;
        double psnr_weighted = 0.0;
        int display_offset = 0;
        codec::EncodeStats& agg = shared.encode;
        for (const auto& part : parts) {
            const codec::EncodeStats& e = part.stats;
            agg.total_bits += e.total_bits;
            agg.i_frames += e.i_frames;
            agg.p_frames += e.p_frames;
            agg.b_frames += e.b_frames;
            agg.mb_skip += e.mb_skip;
            agg.mb_inter16 += e.mb_inter16;
            agg.mb_inter8x8 += e.mb_inter8x8;
            agg.mb_intra16 += e.mb_intra16;
            agg.mb_intra4 += e.mb_intra4;
            agg.me_candidates += e.me_candidates;
            agg.vbv_violations += e.vbv_violations;
            for (codec::FrameStat f : e.frames) {
                f.display_index += display_offset;
                agg.frames.push_back(f);
            }
            psnr_weighted += e.psnr * part.frame_count;
            total_frames += part.frame_count;
            display_offset += part.frame_count;
        }
        const int fps = parts.front().fps;
        if (total_frames > 0) {
            agg.psnr = psnr_weighted / total_frames;
            agg.bitrate_kbps = static_cast<double>(agg.total_bits) / 1000.0
                               / (static_cast<double>(total_frames) / fps);
        }
        shared.psnr = agg.psnr;
        shared.bitrate_kbps = agg.bitrate_kbps;
        return shared;
    });
}

std::shared_ptr<const chunk::SplitPlan>
cachedSplit(const std::string& video, double seconds,
            const codec::EncoderParams& target,
            const chunk::ChunkOptions& opts)
{
    // Keyed by everything the boundary plan depends on: the clip and the
    // planning parameters (effective keyint, scenecut, B placement). The
    // slice encodes use the fixed mezzanine grade, so nothing else in
    // `target` can change the split.
    const int centi = static_cast<int>(seconds * 100.0 + 0.5);
    const int eff_keyint =
        opts.chunk_frames > 0 ? opts.chunk_frames : target.keyint;
    std::string key = video + "/" + std::to_string(centi) + "/k"
                      + std::to_string(eff_keyint) + "/s"
                      + std::to_string(target.scenecut) + "/b"
                      + std::to_string(target.bframes) + "/a"
                      + std::to_string(target.b_adapt);

    static std::mutex mu;
    static std::map<std::string, std::shared_ptr<const chunk::SplitPlan>>
        cache;
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it != cache.end()) {
        return it->second;
    }
    const auto& source = mezzanine(video, seconds);
    auto plan = std::make_shared<chunk::SplitPlan>(
        chunk::split(source, target, opts));
    cache.emplace(key, plan);
    return plan;
}

} // namespace vtrans::core
