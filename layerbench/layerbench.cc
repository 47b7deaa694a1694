/**
 * @file
 * One repetition of one layer-ledger workload, in one process.
 *
 * The request plan arrives on stdin (layerbench/workloads.py generates
 * it from the seed); this program only executes it through the vtrans
 * libraries' public functions and prints one JSON object with the raw
 * measurements: host times, the simulated latency sample, output-check
 * verdicts, a digest of the deterministic outputs and, in traced mode,
 * the per-layer arms. layerbench/run.py aggregates repetitions.
 *
 * Plan lines (one per line, whitespace separated):
 *   workload sweep|farm_zipf|farm_chunked
 *   traced 0|1            after the untraced region, time every layer
 *   check_attribution 0|1 rerun the sweep with attribution off and
 *                         compare fingerprints
 *   setup_only 0|1        time the set-up, print {"setup_s"} and stop
 *   clip <seconds>        clip length of every source
 *   workers <n>           farm worker threads
 *   chunk_frames <n>      boundary spacing of farm_chunked graphs
 *   sample <n>            distinct farm renditions the traced arms run
 *   job <video> <preset> <crf> <refs> <submit_seconds>
 *
 * Host time is steady_clock seconds; simulated time is the core model's
 * (or the farm's event clock) seconds, reported here in milliseconds.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "chunk/chunk.h"
#include "codec/decoder.h"
#include "codec/strategies/strategies.h"
#include "codec/transcode.h"
#include "common/status.h"
#include "core/workload.h"
#include "farm/cache.h"
#include "farm/farm.h"
#include "farm/runlog.h"
#include "obs/hotspots.h"
#include "obs/uarch.h"
#include "trace/probe.h"
#include "uarch/config.h"
#include "uarch/core.h"

namespace {

using namespace vtrans;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Plan
{
    std::string workload;
    bool traced = false;
    bool check_attribution = false;
    bool setup_only = false;
    double clip = 0.1;
    int workers = 1;
    int chunk_frames = 2;
    size_t sample = 4;
    std::vector<farm::JobRequest> jobs;
};

Plan
readPlan(std::istream& in)
{
    Plan plan;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        if (!(fields >> key)) {
            continue;
        }
        if (key == "workload") {
            fields >> plan.workload;
        } else if (key == "traced") {
            fields >> plan.traced;
        } else if (key == "check_attribution") {
            fields >> plan.check_attribution;
        } else if (key == "setup_only") {
            fields >> plan.setup_only;
        } else if (key == "clip") {
            fields >> plan.clip;
        } else if (key == "workers") {
            fields >> plan.workers;
        } else if (key == "chunk_frames") {
            fields >> plan.chunk_frames;
        } else if (key == "sample") {
            fields >> plan.sample;
        } else if (key == "job") {
            farm::JobRequest req;
            fields >> req.task.video >> req.task.preset >> req.task.crf
                >> req.task.refs >> req.submit_time;
            plan.jobs.push_back(req);
        } else {
            VT_FATAL("unknown plan line: ", line);
        }
        if (fields.fail()) {
            VT_FATAL("malformed plan line: ", line);
        }
    }
    if (plan.workload != "sweep" && plan.workload != "farm_zipf"
        && plan.workload != "farm_chunked") {
        VT_FATAL("unknown workload '", plan.workload,
                 "' (known: sweep, farm_zipf, farm_chunked)");
    }
    if (plan.jobs.empty() || plan.clip <= 0.0 || plan.workers < 1) {
        VT_FATAL("plan needs jobs, a positive clip and workers >= 1");
    }
    return plan;
}

/** Minimal JSON object writer: numbers, strings, flags, number arrays. */
class Json
{
  public:
    void num(const std::string& key, double value)
    {
        field(key) << number(value);
    }
    void
    str(const std::string& key, const std::string& value)
    {
        std::ostream& out = field(key) << '"';
        for (char c : value) {
            out << (c == '"' || c == '\\' ? "\\" : "") << c;
        }
        out << '"';
    }
    void flag(const std::string& key, bool value)
    {
        field(key) << (value ? "true" : "false");
    }
    void
    nums(const std::string& key, const std::vector<double>& values)
    {
        std::ostream& out = field(key) << '[';
        for (size_t i = 0; i < values.size(); ++i) {
            out << (i ? "," : "") << number(values[i]);
        }
        out << ']';
    }
    void raw(const std::string& key, const std::string& json)
    {
        field(key) << json;
    }
    std::string text() const { return "{" + body_.str() + "}"; }

  private:
    static std::string
    number(double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return buf;
    }
    std::ostream&
    field(const std::string& key)
    {
        body_ << (first_ ? "" : ",") << '"' << key << "\":";
        first_ = false;
        return body_;
    }
    std::ostringstream body_;
    bool first_ = true;
};

/** Folds one 64-bit value into a running FNV-1a digest. */
uint64_t
mixDigest(uint64_t h, uint64_t v)
{
    return farm::fnv1a(reinterpret_cast<const uint8_t*>(&v), sizeof(v), h);
}

uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** The CPU brand string, read with cpuid rather than from /proc. */
std::string
cpuModel()
{
#if defined(__x86_64__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        std::string brand(reinterpret_cast<const char*>(regs),
                          sizeof(regs));
        brand = brand.c_str(); // Drop the NUL padding.
        const size_t begin = brand.find_first_not_of(' ');
        return begin == std::string::npos ? "unknown" : brand.substr(begin);
    }
#endif
    return "unknown";
}

/** Counts probe events and nothing else: the probe bus's floor cost. */
class CountingSink : public trace::ProbeSink
{
  public:
    void onBlock(const trace::CodeSite&) override { ++events_; }
    void onBranch(const trace::CodeSite&, bool) override { ++events_; }
    void onLoad(uint64_t, uint32_t) override { ++events_; }
    void onStore(uint64_t, uint32_t) override { ++events_; }
    void
    onBatch(const trace::ProbeEvent* events, size_t count) override
    {
        // A fused block+branch record is two events, as per-event.
        for (size_t i = 0; i < count; ++i) {
            events_ += events[i].kind == trace::ProbeEvent::kBlockBranch
                           ? 2
                           : 1;
        }
    }
    uint64_t events() const { return events_; }

  private:
    uint64_t events_ = 0;
};

void
setAttribution(bool on)
{
    obs::setHotspotsEnabled(on);
    obs::setUarchAttributionEnabled(on);
}

core::RunConfig
configFor(const sched::Task& task, double clip)
{
    core::RunConfig cfg;
    cfg.video = task.video;
    cfg.seconds = clip;
    cfg.params = task.params();
    cfg.core = uarch::baselineConfig();
    return cfg;
}

/** Host seconds of each layer arm, summed over the runs they covered. */
struct Arms
{
    double native = 0.0;  ///< codec::transcode, no sink.
    double count = 0.0;   ///< ... into a CountingSink.
    double model = 0.0;   ///< ... into a uarch::CoreModel.
    double run_off = 0.0; ///< core::runInstrumented, attribution off.
    double run_on = 0.0;  ///< ... attribution and hotspots on.
    uint64_t events = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    size_t runs = 0;
    bool identical = true; ///< Model arm, off and on agree exactly.
};

/**
 * Runs one transcode through every layer arm in turn, on the same input
 * and machine state, so each layer's cost is the difference between
 * adjacent arms.
 */
void
runArms(const sched::Task& task, double clip, Arms* arms)
{
    const core::RunConfig cfg = configFor(task, clip);
    const auto& source = core::mezzanine(task.video, clip);
    const uint32_t batch = trace::defaultBatchCapacity();

    auto t0 = Clock::now();
    core::runNative(cfg);
    arms->native += secondsSince(t0);

    // The sink arms repeat runNative's steps with a sink attached.
    CountingSink counter;
    t0 = Clock::now();
    trace::arena().reset();
    trace::setSink(&counter, batch);
    codec::transcode(source, cfg.params);
    trace::setSink(nullptr);
    arms->count += secondsSince(t0);
    arms->events += counter.events();

    uarch::CoreModel model(cfg.core);
    t0 = Clock::now();
    trace::arena().reset();
    trace::setSink(&model, batch);
    codec::transcode(source, cfg.params);
    trace::setSink(nullptr);
    const uarch::CoreStats stats = model.finish();
    arms->model += secondsSince(t0);

    setAttribution(false);
    t0 = Clock::now();
    const core::RunResult off = core::runInstrumented(cfg);
    arms->run_off += secondsSince(t0);

    setAttribution(true);
    t0 = Clock::now();
    const core::RunResult on = core::runInstrumented(cfg);
    arms->run_on += secondsSince(t0);
    setAttribution(false);

    arms->instructions += on.core.instructions;
    arms->cycles += on.core.cycles;
    arms->identical = arms->identical
                      && stats.instructions == off.core.instructions
                      && stats.cycles == off.core.cycles
                      && farm::fingerprint(off) == farm::fingerprint(on);
    ++arms->runs;
}

void
writeArms(const Arms& a, Json* out)
{
    out->num("codec.transcode_s", a.native);
    out->num("trace.events", static_cast<double>(a.events));
    out->num("trace.emit_s", a.count - a.native);
    out->num("uarch.model_s", a.model - a.count);
    out->num("core.self_s", a.run_off - a.model);
    out->num("obs.attr_s", a.run_on - a.run_off);
    out->num("core.run_s", a.run_on);
    out->num("uarch.sim_instructions", static_cast<double>(a.instructions));
    out->num("uarch.sim_cycles", static_cast<double>(a.cycles));
    out->num("uarch.sim_mips",
             a.run_on > 0.0 ? static_cast<double>(a.instructions) / a.run_on
                                  / 1e6
                            : 0.0);
    out->num("arms.runs", static_cast<double>(a.runs));
}

/** What one repetition reports besides its layers. */
struct Outcome
{
    double wall_s = 0.0;
    std::vector<double> point_s; ///< Host seconds of each sweep point.
    std::vector<double> sim_ms;  ///< The workload's latency sample.
    size_t ops = 0;
    size_t failed_ops = 0;
    uint64_t digest = 0xcbf29ce484222325ull;
    std::map<std::string, bool> checks;
};

// ---- sweep ---------------------------------------------------------------

Outcome
sweep(const Plan& plan, Json* layers)
{
    Outcome out;
    std::vector<core::RunResult> results;
    setAttribution(true);
    const auto t0 = Clock::now();
    for (const auto& job : plan.jobs) {
        core::RunConfig cfg = configFor(job.task, plan.clip);
        cfg.keep_output = true;
        const auto p0 = Clock::now();
        results.push_back(core::runInstrumented(cfg));
        out.point_s.push_back(secondsSince(p0));
    }
    out.wall_s = secondsSince(t0);
    setAttribution(false);

    // Every point's bitstream must decode to the source's frame count.
    const auto& video = plan.jobs.front().task.video;
    const auto d0 = Clock::now();
    const size_t frames =
        codec::decode(core::mezzanine(video, plan.clip)).frames.size();
    const double decode_s = secondsSince(d0);
    bool decodes = frames > 0;
    for (const auto& r : results) {
        const bool ok = codec::decode(r.output).frames.size() == frames;
        decodes = decodes && ok;
        out.failed_ops += ok ? 0 : 1;
        out.sim_ms.push_back(r.transcode_seconds * 1e3);
        out.digest = mixDigest(out.digest, farm::fingerprint(r));
    }
    out.ops = results.size();
    out.checks["decode_frames"] = decodes;

    if (plan.check_attribution) {
        bool same = true;
        for (size_t i = 0; i < plan.jobs.size(); ++i) {
            const core::RunResult off = core::runInstrumented(
                configFor(plan.jobs[i].task, plan.clip));
            same = same
                   && farm::fingerprint(off)
                          == farm::fingerprint(results[i]);
        }
        out.checks["attribution_fingerprint"] = same;
    }

    if (plan.traced) {
        Arms arms;
        for (const auto& job : plan.jobs) {
            runArms(job.task, plan.clip, &arms);
        }
        out.checks["arm_identity"] = arms.identical;
        writeArms(arms, layers);
        layers->num("codec.decode_s", decode_s);
    }
    return out;
}

// ---- farms ---------------------------------------------------------------

farm::FarmOptions
farmOptions(const Plan& plan, std::shared_ptr<farm::ResultCache> cache)
{
    farm::FarmOptions options;
    options.workers = plan.workers;
    options.clip_seconds = plan.clip;
    options.cache_serve_hits = true;
    options.shared_cache = std::move(cache);
    return options;
}

/** Submits the plan; returns the ids a client holds (graph roots). */
std::vector<uint64_t>
submitAll(const Plan& plan, farm::Farm* service)
{
    const bool chunked = plan.workload == "farm_chunked";
    chunk::ChunkOptions chunking;
    chunking.chunk_frames = plan.chunk_frames;
    std::vector<uint64_t> ids;
    for (const auto& req : plan.jobs) {
        ids.push_back(chunked ? service->submitChunked(req, chunking)
                              : service->submit(req));
    }
    return ids;
}

void traceFarm(const Plan& plan, const farm::Farm& service,
               const farm::CacheStats& stats,
               std::shared_ptr<farm::ResultCache> cache, double submit_s,
               double wall_s, Json* layers,
               std::map<std::string, bool>* checks);

Outcome
farmWorkload(const Plan& plan, Json* layers)
{
    const bool chunked = plan.workload == "farm_chunked";
    Outcome out;
    auto cache = std::make_shared<farm::ResultCache>();
    farm::Farm service(farmOptions(plan, cache));

    const auto t0 = Clock::now();
    const std::vector<uint64_t> roots = submitAll(plan, &service);
    const double submit_s = secondsSince(t0);
    service.drain();
    out.wall_s = secondsSince(t0);

    const auto& records = service.log().records();
    std::map<uint64_t, int> seen;
    for (const auto& r : records) {
        ++seen[r.id];
        const bool ok = r.state == farm::JobState::Done;
        out.failed_ops += ok ? 0 : 1;
        if (ok && r.kind == (chunked ? "stitch" : "transcode")) {
            out.sim_ms.push_back(r.latency() * 1e3);
        }
    }
    // Ids are dense from 1; digest the deterministic outcome in id order.
    out.ops = service.submitted();
    bool one_each = records.size() == out.ops;
    for (uint64_t id = 1; id <= out.ops; ++id) {
        const auto it = seen.find(id);
        if (it == seen.end() || it->second != 1) {
            one_each = false;
            ++out.failed_ops;
            continue;
        }
        const auto& r = service.log().record(id);
        out.digest = mixDigest(out.digest, id);
        out.digest = mixDigest(out.digest, static_cast<uint64_t>(r.state));
        out.digest = mixDigest(out.digest, r.result_fingerprint);
        out.digest = mixDigest(out.digest, bitsOf(r.finish));
    }
    out.checks["one_record_per_job"] = one_each;
    const farm::CacheStats cs = service.cacheDrainStats();
    out.checks["cache_accounting"] = cs.hits + cs.misses == cs.lookups;
    if (chunked) {
        bool resolved = true;
        for (uint64_t root : roots) {
            if (seen.count(root) == 0) {
                resolved = false;
                continue;
            }
            const auto& r = service.log().record(root);
            resolved = resolved && r.kind == "stitch"
                       && (r.state == farm::JobState::Done
                           || r.state == farm::JobState::Failed);
        }
        out.checks["graphs_resolved"] = resolved;
    }
    if (plan.traced) {
        traceFarm(plan, service, cs, cache, submit_s, out.wall_s, layers,
                  &out.checks);
    }
    return out;
}

/**
 * The traced part of a farm repetition, after its untraced drain: the
 * warm replay, the farm's own metrics, the per-source codec and chunk
 * layers, and the layer arms on a sample of the stream's renditions.
 * `stats` are the untraced drain's cache statistics, read before the
 * replay adds its own lookups to the shared cache.
 */
void
traceFarm(const Plan& plan, const farm::Farm& service,
          const farm::CacheStats& stats,
          std::shared_ptr<farm::ResultCache> cache, double submit_s,
          double wall_s, Json* layers, std::map<std::string, bool>* checks)
{
    const bool chunked = plan.workload == "farm_chunked";
    // Warm replay: the same stream on a second farm sharing the filled
    // cache. It plans as if the cache were cold, so it makes the first
    // drain's schedule (a warm plan would move jobs onto server classes
    // whose results the cache lacks), and every lookup finds its result,
    // so nothing is encoded again. Its drain is the farm's own control
    // path: characterize, plan, account and cache lookups (on
    // farm_chunked also the native whole-clip references, which the
    // cache does not hold).
    double control_s = 0.0;
    {
        farm::FarmOptions options = farmOptions(plan, cache);
        options.cache_plan_cold = true;
        farm::Farm replay(options);
        submitAll(plan, &replay);
        const auto r0 = Clock::now();
        replay.drain();
        control_s = secondsSince(r0);
        const farm::CacheStats warm = replay.cacheDrainStats();
        (*checks)["replay_warm"] = warm.misses == 0;
        // The service's own statistics now include the replay's lookups.
        (*checks)["cache_stats_untraced"] =
            service.cacheDrainStats().lookups == stats.lookups + warm.lookups;
    }
    size_t done = 0;
    size_t hits = 0;
    double delta_psnr = 0.0;
    size_t stitches = 0;
    for (const auto& r : service.log().records()) {
        if (r.state != farm::JobState::Done) {
            continue;
        }
        ++done;
        hits += r.cache_hit ? 1 : 0;
        if (r.kind == "stitch") {
            delta_psnr += r.delta_psnr_db;
            ++stitches;
        }
    }
    const farm::FarmMetrics m = service.metrics();
    double util = 0.0;
    for (size_t s = 0; s < m.server_busy.size(); ++s) {
        util += m.utilization(s);
    }
    util /= static_cast<double>(std::max<size_t>(1, m.server_busy.size()));
    const double drain_s = wall_s - submit_s;
    layers->num("farm.submit_s", submit_s);
    layers->num("farm.drain_s", drain_s);
    layers->num("farm.control_s", control_s);
    layers->num("farm.execute_s", drain_s - control_s);
    layers->num("farm.queue_wait_ms", m.mean_queue_wait * 1e3);
    layers->num("farm.util", util);
    layers->num("farm.pred_err", m.mean_prediction_error);
    layers->num("farm.retries", static_cast<double>(m.retries));
    layers->num("farm.shed", static_cast<double>(m.shed));
    layers->num("cache.lookups", static_cast<double>(stats.lookups));
    layers->num("cache.hits", static_cast<double>(stats.hits));
    layers->num("cache.misses", static_cast<double>(stats.misses));
    layers->num("cache.inflight_waits",
                static_cast<double>(stats.inflight_waits));
    layers->num("cache.evictions", static_cast<double>(stats.evictions));
    layers->num("cache.bytes", static_cast<double>(stats.bytes));
    layers->num("cache.job_hit_frac",
                done == 0 ? 0.0 : static_cast<double>(hits) / done);
    layers->num("chunk.delta_psnr_db",
                stitches == 0 ? 0.0 : delta_psnr / stitches);

    // Per-source layers: decode every distinct source; on farm_chunked
    // also split it and stitch the split's slices back together.
    std::set<std::string> videos;
    for (const auto& req : plan.jobs) {
        videos.insert(req.task.video);
    }
    double decode_s = 0.0;
    double split_s = 0.0;
    double stitch_s = 0.0;
    double segments = 0.0;
    double stitch_bytes = 0.0;
    chunk::ChunkOptions chunking;
    chunking.chunk_frames = plan.chunk_frames;
    const codec::EncoderParams target = plan.jobs.front().task.params();
    for (const auto& video : videos) {
        const auto& source = core::mezzanine(video, plan.clip);
        auto p0 = Clock::now();
        codec::decode(source);
        decode_s += secondsSince(p0);
        if (!chunked) {
            continue;
        }
        p0 = Clock::now();
        const chunk::SplitPlan split = chunk::split(source, target, chunking);
        split_s += secondsSince(p0);
        std::vector<const std::vector<uint8_t>*> slices;
        for (const auto& seg : split.segments) {
            slices.push_back(&seg.source);
        }
        p0 = Clock::now();
        stitch_bytes += static_cast<double>(chunk::stitch(slices).size());
        stitch_s += secondsSince(p0);
        segments += static_cast<double>(split.segments.size());
    }
    layers->num("codec.decode_s", decode_s);
    layers->num("chunk.split_s", split_s);
    layers->num("chunk.segments", segments);
    layers->num("chunk.stitch_s", stitch_s);
    layers->num("chunk.stitch_bytes", stitch_bytes);

    // Layer arms on the first `sample` distinct renditions of the stream.
    std::vector<sched::Task> renditions;
    std::set<std::string> keys;
    for (const auto& req : plan.jobs) {
        const auto& t = req.task;
        const std::string key = t.video + "/" + t.preset + "/"
                                + std::to_string(t.crf) + "/"
                                + std::to_string(t.refs);
        if (renditions.size() < plan.sample && keys.insert(key).second) {
            renditions.push_back(t);
        }
    }
    Arms arms;
    for (const auto& task : renditions) {
        runArms(task, plan.clip, &arms);
    }
    (*checks)["arm_identity"] = arms.identical;
    writeArms(arms, layers);
}

} // namespace

int
main()
{
    setVerbose(false);
    const Plan plan = readPlan(std::cin);

    // Set-up: every source's mezzanine (plus the farm's calibration
    // reference) and the process-wide probe-site registration.
    std::set<std::string> sources;
    for (const auto& req : plan.jobs) {
        sources.insert(req.task.video);
    }
    if (plan.workload != "sweep") {
        sources.insert(farm::FarmOptions{}.reference_video);
    }
    const auto s0 = Clock::now();
    for (const auto& video : sources) {
        core::mezzanine(video, plan.clip);
    }
    farm::Farm::warmupProcess();
    const double setup_s = secondsSince(s0);
    if (plan.setup_only) {
        Json result;
        result.num("setup_s", setup_s);
        std::printf("%s\n", result.text().c_str());
        return 0;
    }

    Json layers;
    const Outcome out = plan.workload == "sweep" ? sweep(plan, &layers)
                                                 : farmWorkload(plan, &layers);

    Json checks;
    for (const auto& [name, ok] : out.checks) {
        checks.flag(name, ok);
    }
    Json provenance;
    provenance.str("compiler", LAYERBENCH_COMPILER);
    provenance.str("flags", LAYERBENCH_CXX_FLAGS);
    provenance.str("build_type", LAYERBENCH_BUILD_TYPE);
    provenance.str("cpu", cpuModel());
    provenance.num("nproc", std::thread::hardware_concurrency());
    provenance.str("kernel_isa", codec::kernelIsa());
    provenance.num("batch_capacity", trace::defaultBatchCapacity());

    Json result;
    result.str("workload", plan.workload);
    result.num("setup_s", setup_s);
    result.num("wall_s", out.wall_s);
    result.num("peak_rss_mb", peakRssMb());
    result.num("ops", static_cast<double>(out.ops));
    result.num("failed_ops", static_cast<double>(out.failed_ops));
    result.str("digest", hex(out.digest));
    result.nums("point_s", out.point_s);
    result.nums("sim_ms", out.sim_ms);
    result.raw("checks", checks.text());
    result.raw("layers", layers.text());
    result.raw("provenance", provenance.text());
    std::printf("%s\n", result.text().c_str());
    return 0;
}
