/**
 * @file
 * Tests of the observability layer: the JSON reader used for artifact
 * validation; hotspot reports built from the core model's per-site
 * attribution (bit-identical fingerprints, instruction totals that sum
 * to the model's counter); kernel-family rollups; span
 * tracing (thread safety, Chrome trace export, farm job-lifecycle span
 * consistency); and the metrics registry's Prometheus exposition.
 *
 * The ArtifactValidation cases double as tools/check.sh's validator:
 * they parse files named by VTRANS_TRACE_JSON / VTRANS_UARCH_JSON /
 * VTRANS_PHASE_TRACE_JSON and skip when the variables are unset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include "codec/loopflags.h"
#include "codec/params.h"
#include "codec/strategies/strategies.h"
#include "codec/transcode.h"
#include "core/parallel.h"
#include "core/workload.h"
#include "farm/farm.h"
#include "obs/diff.h"
#include "obs/hotspots.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/uarch.h"
#include "trace/probe.h"
#include "uarch/config.h"
#include "uarch/core.h"

namespace vtrans {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalarsArraysAndObjects)
{
    std::string err;
    auto v = obs::parseJson(
        R"({"a": 1.5, "b": [true, false, null, -2e3], "c": {"d": "x\ny"}})",
        &err);
    ASSERT_NE(v, nullptr) << err;
    ASSERT_TRUE(v->isObject());
    EXPECT_DOUBLE_EQ(v->numberOr("a", 0.0), 1.5);
    const obs::JsonValue* b = v->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->array().size(), 4u);
    EXPECT_TRUE(b->array()[0].boolean());
    EXPECT_FALSE(b->array()[1].boolean());
    EXPECT_TRUE(b->array()[2].isNull());
    EXPECT_DOUBLE_EQ(b->array()[3].number(), -2000.0);
    const obs::JsonValue* c = v->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->strOr("d", ""), "x\ny");
}

TEST(Json, DecodesStringEscapes)
{
    auto v = obs::parseJson(R"(["q\"w", "s\\t", "uA"])");
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->array().size(), 3u);
    EXPECT_EQ(v->array()[0].str(), "q\"w");
    EXPECT_EQ(v->array()[1].str(), "s\\t");
    EXPECT_EQ(v->array()[2].str(), "uA");
}

TEST(Json, RejectsMalformedDocuments)
{
    std::string err;
    EXPECT_EQ(obs::parseJson("{\"a\": }", &err), nullptr);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(obs::parseJson("[1, 2", &err), nullptr);
    EXPECT_EQ(obs::parseJson("[1] garbage", &err), nullptr);
    EXPECT_EQ(obs::parseJson("", &err), nullptr);
    EXPECT_EQ(obs::parseJson("{\"unterminated", &err), nullptr);
}

// ------------------------------------------------------------ hotspots

/** One instrumented run with per-site attribution on in the model. */
struct AttributedRun
{
    std::unique_ptr<uarch::CoreModel> model;
    uarch::CoreStats core;
};

AttributedRun
attributedTranscode(const std::string& preset, const std::string& video,
                    double seconds,
                    uint32_t batch = trace::kDefaultProbeBatch,
                    uint64_t phase_window = 0)
{
    const auto& source = core::mezzanine(video, seconds);
    trace::arena().reset();
    uarch::CoreParams params = uarch::baselineConfig();
    params.attribute_sites = true;
    params.phase_window = phase_window;
    AttributedRun run;
    run.model = std::make_unique<uarch::CoreModel>(params);
    trace::setSink(run.model.get(), batch);
    codec::transcode(source, codec::presetParams(preset));
    trace::setSink(nullptr);
    run.core = run.model->finish();
    return run;
}

/** The run's hotspot report (its model merged into a fresh report). */
std::unique_ptr<obs::HotspotReport>
reportOf(const AttributedRun& run)
{
    auto report = std::make_unique<obs::HotspotReport>();
    obs::mergeAttribution(report.get(), *run.model);
    return report;
}

TEST(Hotspots, PerSiteInstructionsSumExactlyToCoreCounter)
{
    // Per-site instructions are derived from the model's own event
    // tallies, so the attributed totals must reproduce the model's
    // retired instruction counter exactly — not approximately.
    const AttributedRun run = attributedTranscode("medium", "cat", 0.12);
    EXPECT_GT(run.core.instructions, 0u);
    const auto report = reportOf(run);
    uint64_t per_site = 0;
    for (const auto& row : report->bySite()) {
        per_site += row.counters.instructions;
    }
    EXPECT_EQ(per_site, run.core.instructions);
    EXPECT_EQ(report->totals().instructions, run.core.instructions);

    // Loads/stores arrive before any block only in synthetic streams;
    // a real transcode attributes everything.
    const uarch::SiteUarch& none = run.model->attributionUnattributed();
    EXPECT_EQ(none.loads + none.stores, 0u);
}

TEST(Hotspots, ReportRollupsPreserveTotals)
{
    const AttributedRun run = attributedTranscode("medium", "cat", 0.12);
    const auto report = reportOf(run);
    EXPECT_FALSE(report->empty());
    const uint64_t total = report->totals().instructions;
    EXPECT_EQ(total, run.core.instructions);

    // Each rollup is a partition of the same events: sums must agree.
    for (auto rows : {report->bySite(), report->byPrefix(),
                      report->byFamily()}) {
        uint64_t sum = 0;
        for (const auto& row : rows) {
            sum += row.counters.instructions;
        }
        EXPECT_EQ(sum, total);
        // Rows are sorted by instruction count, descending.
        for (size_t i = 1; i < rows.size(); ++i) {
            EXPECT_GE(rows[i - 1].counters.instructions,
                      rows[i].counters.instructions);
        }
    }
}

TEST(Hotspots, TopFamilyAtMediumPresetIsMotionEstimation)
{
    // The paper's hotspot analysis (VTune, §IV) finds motion estimation
    // (SAD/SATD cost kernels) dominating x264 CPU time at the medium
    // preset; the instruction-attributed profile must agree. Needs a
    // realistic clip: on postage-stamp frames trellis quantization
    // overtakes the (area-scaled) search kernels.
    const AttributedRun run = attributedTranscode("medium", "funny", 0.1);
    const auto report = reportOf(run);
    const auto families = report->byFamily();
    ASSERT_FALSE(families.empty());
    EXPECT_EQ(families.front().name, "motion estimation");

    const std::string table = report->table(5);
    EXPECT_NE(table.find("motion estimation"), std::string::npos);
    EXPECT_NE(table.find("hotspots by code site"), std::string::npos);
}

TEST(Hotspots, KernelFamilyClassification)
{
    EXPECT_EQ(obs::kernelFamily("me.hex.iter"), "motion estimation");
    EXPECT_EQ(obs::kernelFamily("pixel.sad.rows8"), "motion estimation");
    EXPECT_EQ(obs::kernelFamily("pixel.satd4x4"), "motion estimation");
    EXPECT_EQ(obs::kernelFamily("pixel.mc.row"), "interpolation");
    EXPECT_EQ(obs::kernelFamily("pixel.average"), "interpolation");
    EXPECT_EQ(obs::kernelFamily("dct.quant4x4"), "transform/quant");
    EXPECT_EQ(obs::kernelFamily("trellis.cmp"), "transform/quant");
    EXPECT_EQ(obs::kernelFamily("bitstream.write.ue"), "entropy coding");
    EXPECT_EQ(obs::kernelFamily("entropy.sig"), "entropy coding");
    EXPECT_EQ(obs::kernelFamily("deblock.filter"), "deblocking");
    EXPECT_EQ(obs::kernelFamily("intra.pred16"), "intra prediction");
    EXPECT_EQ(obs::kernelFamily("lookahead.sad8"), "lookahead");
    EXPECT_EQ(obs::kernelFamily("rc.mbqp"), "rate control");
    EXPECT_EQ(obs::kernelFamily("dec.recon4"), "decode");
    EXPECT_EQ(obs::kernelFamily("enc.recon4"), "macroblock encode");
    EXPECT_EQ(obs::kernelFamily("unknown.thing"), "unknown");
}

TEST(Hotspots, JsonReportParsesAndCarriesTotals)
{
    const AttributedRun run = attributedTranscode("medium", "funny", 0.1);
    std::string err;
    auto v = obs::parseJson(reportOf(run)->toJson(), &err);
    ASSERT_NE(v, nullptr) << err;
    const obs::JsonValue* totals = v->find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_DOUBLE_EQ(totals->numberOr("instructions", -1.0),
                     static_cast<double>(run.core.instructions));
    const obs::JsonValue* families = v->find("by_family");
    ASSERT_NE(families, nullptr);
    ASSERT_TRUE(families->isArray());
    ASSERT_FALSE(families->array().empty());
    EXPECT_EQ(families->array().front().strOr("name", ""),
              "motion estimation");
}

// ----------------------------------------------- profiled == unprofiled

farm::FarmOptions
fastFarmOptions(int workers)
{
    farm::FarmOptions options;
    options.pool = {uarch::beOp1Config(), uarch::bsOpConfig()};
    options.clip_seconds = 0.12;
    options.reference_video = "holi";
    options.workers = workers;
    return options;
}

std::vector<farm::JobRequest>
smallJobStream(int jobs, int retries)
{
    const std::vector<sched::Task> catalog = {
        {"cat", 23, 3, "fast"},
        {"holi", 26, 2, "veryfast"},
        {"cat", 30, 1, "ultrafast"},
    };
    std::vector<farm::JobRequest> stream;
    for (int i = 0; i < jobs; ++i) {
        farm::JobRequest req;
        req.task = catalog[i % catalog.size()];
        req.submit_time = 0.0002 * i;
        req.retry_budget = retries;
        stream.push_back(req);
    }
    return stream;
}

std::string
farmJsonl(int workers, bool profiled)
{
    obs::setHotspotsEnabled(profiled);
    farm::Farm service(fastFarmOptions(workers));
    for (const auto& req : smallJobStream(5, 1)) {
        service.submit(req);
    }
    const std::string jsonl = service.drain().toJsonl();
    obs::setHotspotsEnabled(false);
    return jsonl;
}

TEST(Hotspots, ProfiledRunsFingerprintIdenticalToUnprofiled)
{
    // Hotspot collection is pure accounting inside the model; it must
    // not perturb timing. Every job fingerprint (an FNV-1a over all
    // result scalars) must be bit-identical with and without profiling,
    // serial and parallel alike.
    obs::hotspotReport().reset();
    const std::string baseline = farmJsonl(1, false);
    EXPECT_EQ(farmJsonl(1, true), baseline);
    EXPECT_EQ(farmJsonl(4, true), baseline);
    // And profiling actually collected something while not perturbing.
    EXPECT_FALSE(obs::hotspotReport().empty());
    obs::hotspotReport().reset();
}

/** True when two vectors of padding-free counter structs hold the same
 *  bytes (every field equal, in order). */
template <typename T>
bool
sameCounters(const std::vector<T>& a, const std::vector<T>& b)
{
    static_assert(std::has_unique_object_representations_v<T>);
    return a.size() == b.size()
           && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/** CoreStats's raw counters, in declaration order. */
std::vector<uint64_t>
rawCounters(const uarch::CoreStats& s)
{
    std::vector<uint64_t> out;
    for (const auto& c : uarch::kCoreStatsCounters) {
        out.push_back(s.*c.member);
    }
    return out;
}

TEST(Hotspots, BatchedPipelineBitIdenticalAtOneAndFourWorkers)
{
    // The batch capacity must not move a single bit. A real transcode
    // through a directly attached model at a batch of one, at capacity 3
    // (the ring wraps constantly) and at the default must give the same
    // CoreStats, per-site attribution and phase samples.
    constexpr uint64_t kWindow = 100000;
    const AttributedRun one = attributedTranscode("medium", "cat", 0.1, 1,
                                                  kWindow);
    ASSERT_GT(one.model->phaseSamples().size(), 1u);
    for (uint32_t capacity : {3u, trace::kDefaultProbeBatch}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        const AttributedRun run =
            attributedTranscode("medium", "cat", 0.1, capacity, kWindow);
        EXPECT_EQ(rawCounters(run.core), rawCounters(one.core));
        EXPECT_TRUE(sameCounters(run.model->attributionPerSite(),
                                 one.model->attributionPerSite()));
        EXPECT_TRUE(sameCounters(
            std::vector{run.model->attributionUnattributed()},
            std::vector{one.model->attributionUnattributed()}));
        EXPECT_TRUE(sameCounters(run.model->phaseSamples(),
                                 one.model->phaseSamples()));
    }

    // Serial and parallel farms at the default capacity: the run-log
    // JSONL (fingerprints, latencies, stats) and the hotspot report must
    // match exactly.
    auto runWith = [](int workers, std::string* hotspots) {
        obs::hotspotReport().reset();
        const std::string jsonl = farmJsonl(workers, true);
        *hotspots = obs::hotspotReport().toJson();
        obs::hotspotReport().reset();
        return jsonl;
    };
    std::string serial_hot;
    std::string parallel_hot;
    const std::string serial = runWith(1, &serial_hot);
    EXPECT_EQ(runWith(4, &parallel_hot), serial);
    EXPECT_EQ(parallel_hot, serial_hot);
    EXPECT_NE(serial_hot.find("by_site"), std::string::npos);
}

/** byFamily() of the global report after one instrumented run. */
std::vector<obs::HotspotRow>
familiesAfterRun(const core::RunConfig& config)
{
    obs::hotspotReport().reset();
    core::runInstrumented(config);
    const std::vector<obs::HotspotRow> rows = obs::hotspotReport().byFamily();
    obs::hotspotReport().reset();
    return rows;
}

TEST(Hotspots, HotspotsOnlyRunMatchesAttributedRollup)
{
    // --hotspots and --uarch-report are one flag: a hotspots-only run
    // must roll up exactly the instructions an attribution-on run does,
    // and per-run CoreParams::attribute_sites must agree with both.
    core::RunConfig config;
    config.video = "cat";
    config.seconds = 0.1;
    config.params = codec::presetParams("fast");
    config.core = uarch::baselineConfig();

    obs::setHotspotsEnabled(true);
    const auto hotspots_only = familiesAfterRun(config);
    obs::setHotspotsEnabled(false);
    obs::setUarchAttributionEnabled(true);
    EXPECT_TRUE(obs::hotspotsEnabled());
    const auto attributed = familiesAfterRun(config);
    obs::setUarchAttributionEnabled(false);
    EXPECT_FALSE(obs::hotspotsEnabled());
    config.core.attribute_sites = true;
    const auto per_run = familiesAfterRun(config);

    ASSERT_FALSE(hotspots_only.empty());
    for (const auto* other : {&attributed, &per_run}) {
        ASSERT_EQ(other->size(), hotspots_only.size());
        for (size_t i = 0; i < hotspots_only.size(); ++i) {
            EXPECT_EQ((*other)[i].name, hotspots_only[i].name);
            EXPECT_EQ((*other)[i].counters.instructions,
                      hotspots_only[i].counters.instructions)
                << hotspots_only[i].name;
        }
    }
    // The µarch columns of a hotspots-only run are filled, not zero.
    EXPECT_GT(hotspots_only.front().counters.cycles, 0u);
}

// -------------------------------------------------- µarch attribution

/** Expects every counter that `table_a` and `table_b` both name to hold
 *  the same value in `a` and `b`; returns how many names they share. */
template <typename A, typename TableA, typename B, typename TableB>
size_t
expectSharedCountersEqual(const A& a, const TableA& table_a, const B& b,
                          const TableB& table_b)
{
    size_t shared = 0;
    for (const auto& x : table_a) {
        for (const auto& y : table_b) {
            if (std::strcmp(x.name, y.name) == 0) {
                ++shared;
                EXPECT_EQ(a.*x.member, b.*y.member) << x.name;
            }
        }
    }
    return shared;
}

/** Sums a model's per-site attribution plus the unattributed bucket. */
uarch::SiteUarch
attributionSum(const uarch::CoreModel& model)
{
    uarch::SiteUarch sum = model.attributionUnattributed();
    for (const auto& site : model.attributionPerSite()) {
        sum.add(site);
    }
    return sum;
}

/** The exactness contract: every per-site field sums back to the
 *  corresponding CoreStats counter bit for bit — attribution is a
 *  partition of the model's accounting, not an approximation of it. */
void
expectAttributionExact(const uarch::CoreModel& model,
                       const uarch::CoreStats& core)
{
    const uarch::SiteUarch sum = attributionSum(model);
    EXPECT_EQ(expectSharedCountersEqual(sum, uarch::kSiteUarchCounters, core,
                                        uarch::kCoreStatsCounters),
              16u);
    // The five slot classes partition every dispatch slot.
    EXPECT_EQ(sum.slots_retiring + sum.slots_frontend + sum.slots_bad_spec
                  + sum.slots_backend_memory + sum.slots_backend_core,
              core.slots_total);

    // The event tallies survive the merge into report rows: per-site
    // instructions (derived at merge) partition the retired-instruction
    // counter, branches the branch counter, and loads + stores the
    // model's memory operations, each of which touches an L1d line.
    obs::HotspotReport report;
    obs::mergeAttribution(&report, model);
    const uarch::SiteUarch& none = model.attributionUnattributed();
    uint64_t instructions = none.loads + none.stores;
    uint64_t branches = none.branches;
    uint64_t mem_ops = none.loads + none.stores;
    for (const obs::HotspotRow& row : report.bySite()) {
        instructions += row.counters.instructions;
        branches += row.counters.branches;
        mem_ops += row.counters.loads + row.counters.stores;
    }
    EXPECT_EQ(instructions, core.instructions);
    EXPECT_EQ(branches, core.branches);
    EXPECT_EQ(mem_ops, sum.loads + sum.stores);
    EXPECT_GT(mem_ops, 0u);
    EXPECT_LE(mem_ops, core.l1d_accesses);
}

TEST(UarchAttribution, PerSiteSumsMatchCoreStatsFieldByField)
{
    // A batch of one and the default capacity must both attribute
    // exactly: nothing may leak past the current site at a batch edge.
    for (uint32_t batch : {1u, trace::kDefaultProbeBatch}) {
        SCOPED_TRACE("batch capacity " + std::to_string(batch));
        const AttributedRun run =
            attributedTranscode("medium", "cat", 0.12, batch);
        EXPECT_GT(run.core.cycles, 0u);
        expectAttributionExact(*run.model, run.core);
        // A real transcode attributes everything to real sites.
        EXPECT_EQ(run.model->attributionUnattributed().cycles, 0u);
    }
}

TEST(UarchAttribution, TopCycleFamilyAtMediumPresetIsMotionEstimation)
{
    // The paper's headline µarch finding: motion-estimation cost kernels
    // dominate *cycles* (not just instructions) at the medium preset.
    const AttributedRun run = attributedTranscode("medium", "funny", 0.1);
    obs::HotspotReport report;
    obs::mergeAttribution(&report, *run.model);

    const auto families = report.byFamily();
    ASSERT_FALSE(families.empty());
    const auto top = std::max_element(
        families.begin(), families.end(),
        [](const obs::HotspotRow& a, const obs::HotspotRow& b) {
            return a.counters.cycles < b.counters.cycles;
        });
    EXPECT_EQ(top->name, "motion estimation");

    // Report totals carry the model's counters exactly.
    EXPECT_EQ(report.totals().cycles, run.core.cycles);
    EXPECT_EQ(report.totals().instructions, run.core.instructions);

    const std::string table = report.uarchTable(5);
    EXPECT_NE(table.find("motion estimation"), std::string::npos);
    EXPECT_NE(table.find("CPI"), std::string::npos);
    EXPECT_NE(table.find("be-mem"), std::string::npos);
}

TEST(UarchAttribution, ReportTotalsMatchSweepCoreStats)
{
    // End-to-end through the instrumented-run chokepoint: the global
    // report's µarch totals must equal the sum of every sweep point's
    // CoreStats, serial and parallel.
    const std::vector<int> crf{21, 41};
    const std::vector<int> refs{1, 4};
    core::StudyOptions options;
    options.video = "cat";
    options.seconds = 0.1;
    options.verbose = false;
    core::mezzanine(options.video, options.seconds);

    obs::setUarchAttributionEnabled(true);
    for (int jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        options.jobs = jobs;
        obs::hotspotReport().reset();
        const auto points = core::parallelCrfRefsSweep(crf, refs, options);
        uarch::CoreStats want;
        for (const auto& p : points) {
            for (const auto& c : uarch::kCoreStatsCounters) {
                want.*c.member += p.run.core.*c.member;
            }
        }
        // The 16 shared µarch counters plus instructions.
        EXPECT_EQ(expectSharedCountersEqual(obs::hotspotReport().totals(),
                                            obs::kSiteCounters, want,
                                            uarch::kCoreStatsCounters),
                  17u);
    }
    obs::setUarchAttributionEnabled(false);
    obs::hotspotReport().reset();
}

std::string
farmJsonlAttributed(int workers, bool attributed)
{
    obs::setUarchAttributionEnabled(attributed);
    farm::Farm service(fastFarmOptions(workers));
    for (const auto& req : smallJobStream(5, 1)) {
        service.submit(req);
    }
    const std::string jsonl = service.drain().toJsonl();
    obs::setUarchAttributionEnabled(false);
    return jsonl;
}

TEST(UarchAttribution, AttributionDoesNotPerturbFarmResults)
{
    // Attribution is pure accounting inside the model: every run-log
    // scalar and fingerprint must be bit-identical with it on or off,
    // serial and parallel alike (and off is the seed's exact code path).
    obs::hotspotReport().reset();
    const std::string baseline = farmJsonlAttributed(1, false);
    EXPECT_EQ(farmJsonlAttributed(1, true), baseline);
    EXPECT_EQ(farmJsonlAttributed(4, true), baseline);
    // And the attributed runs actually collected µarch tallies.
    EXPECT_GT(obs::hotspotReport().totals().cycles, 0u);
    obs::hotspotReport().reset();
}

TEST(UarchAttribution, PhaseSamplesAreCumulativeAndEndAtTotals)
{
    constexpr uint64_t kWindow = 200000;
    const AttributedRun run = attributedTranscode(
        "medium", "cat", 0.12, trace::kDefaultProbeBatch, kWindow);
    const auto& samples = run.model->phaseSamples();
    ASSERT_GT(samples.size(), 1u);
    EXPECT_GE(samples.front().instructions, kWindow);
    for (size_t i = 1; i < samples.size(); ++i) {
        EXPECT_GE(samples[i].instructions, samples[i - 1].instructions);
        EXPECT_GE(samples[i].cycles, samples[i - 1].cycles);
        EXPECT_GE(samples[i].l1d_misses, samples[i - 1].l1d_misses);
        EXPECT_GE(samples[i].slots_retiring, samples[i - 1].slots_retiring);
    }
    // The finish() sample closes the series at the exact run totals.
    EXPECT_EQ(samples.back().instructions, run.core.instructions);
    EXPECT_EQ(samples.back().cycles, run.core.cycles);
    EXPECT_EQ(samples.back().slots_retiring, run.core.slots_retiring);
    EXPECT_EQ(samples.back().branch_mispredicts,
              run.core.branch_mispredicts);

    // The exporter renders the series as Chrome counter events on the
    // phase pid, with in-range top-down shares.
    obs::SpanTracer tracer;
    obs::emitPhaseCounters(&tracer, *run.model, "test");
    ASSERT_GT(tracer.size(), 0u);
    std::string err;
    auto v = obs::parseJson(tracer.toChromeTrace(), &err);
    ASSERT_NE(v, nullptr) << err;
    size_t counters = 0;
    for (const auto& e : v->find("traceEvents")->array()) {
        if (e.strOr("ph", "") != "C") {
            continue;
        }
        ++counters;
        EXPECT_DOUBLE_EQ(e.numberOr("pid", -1.0),
                         static_cast<double>(obs::kPhaseTrackPid));
        const obs::JsonValue* args = e.find("args");
        ASSERT_NE(args, nullptr);
        if (e.strOr("name", "").rfind("topdown", 0) == 0) {
            const double retiring = args->numberOr("retiring", -1.0);
            EXPECT_GE(retiring, 0.0);
            EXPECT_LE(retiring, 1.0);
        } else {
            EXPECT_GE(args->numberOr("ipc", -1.0), 0.0);
        }
    }
    EXPECT_GT(counters, 0u);
}

// --------------------------------------------- differential µarch diffs

TEST(UarchDiff, ReportRoundTripsAndSelfDiffIsZero)
{
    const AttributedRun run = attributedTranscode("medium", "cat", 0.1);
    obs::HotspotReport report;
    obs::mergeAttribution(&report, *run.model);

    const std::string json = report.toJson();
    obs::HotspotReport data;
    std::string err;
    ASSERT_TRUE(obs::parseReport(json, &data, &err)) << err;
    EXPECT_EQ(data.totals().cycles, run.core.cycles);
    EXPECT_EQ(data.totals().instructions, run.core.instructions);
    EXPECT_FALSE(data.byFamily().empty());
    EXPECT_FALSE(data.byPrefix().empty());
    EXPECT_FALSE(data.bySite().empty());
    // Totals and rollups are recomputed from the sites, so the loaded
    // report writes the same bytes it was read from.
    EXPECT_EQ(data.toJson(), json);

    const obs::ReportDiff self = obs::diffReports(data, data);
    EXPECT_EQ(self.totals.deltaCycles(), 0);
    EXPECT_EQ(self.totals.deltaInstructions(), 0);
    for (const auto& row : self.by_family) {
        EXPECT_EQ(row.deltaCycles(), 0) << row.name;
    }
    const std::string table = obs::diffTable(self, 5);
    EXPECT_NE(table.find("delta by kernel family"), std::string::npos);
}

TEST(UarchDiff, RejectsMalformedReports)
{
    obs::HotspotReport data;
    std::string err;
    EXPECT_FALSE(obs::parseReport("not json", &data, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(obs::parseReport(R"({"totals": 3})", &data, &err));
    EXPECT_FALSE(obs::loadReport("/nonexistent/uarch.json", &data, &err));

    // A counter must be an integer in [0, 2^64), and the error names it:
    // no value is clamped or cast out of range.
    const auto siteRow = [](const std::string& field) {
        return std::string(R"({"by_site":[{"name":"me.sad",)")
            .append(field)
            .append("}]}");
    };
    for (const char* field :
         {R"("cycles":1e300)", R"("cycles":18446744073709551616)",
          R"("cycles":-1)", R"("cycles":2.5)", R"("cycles":"7")"}) {
        SCOPED_TRACE(field);
        err.clear();
        EXPECT_FALSE(obs::parseReport(siteRow(field), &data, &err));
        EXPECT_NE(err.find("\"cycles\""), std::string::npos) << err;
    }
    err.clear();
    EXPECT_FALSE(obs::parseReport(
        R"({"by_site":[],"unattributed":{"loads":-3}})", &data, &err));
    EXPECT_NE(err.find("\"loads\""), std::string::npos) << err;
    // A row's name must be a string.
    for (const char* row : {R"({"cycles":1})", R"({"name":7,"cycles":1})"}) {
        SCOPED_TRACE(row);
        err.clear();
        EXPECT_FALSE(obs::parseReport(
            std::string(R"({"by_site":[)") + row + "]}", &data, &err));
        EXPECT_NE(err.find("\"name\""), std::string::npos) << err;
    }

    // The largest integral double below 2^64 and a field the reader
    // does not know both load, and so does 2^53 + 1, which no double
    // holds: counters are read from their digits.
    err.clear();
    ASSERT_TRUE(obs::parseReport(
        siteRow(R"("cycles":18446744073709549568,"new_field":1.5)"), &data,
        &err))
        << err;
    EXPECT_EQ(data.totals().cycles, 18446744073709549568ull);
    ASSERT_TRUE(
        obs::parseReport(siteRow(R"("cycles":9007199254740993)"), &data, &err))
        << err;
    EXPECT_EQ(data.totals().cycles, 9007199254740993ull);
}

TEST(UarchDiff, ScalarVsVectorDeltaLandsInVectorizedFamilies)
{
    // The acceptance scenario: diff a scalar-kernel-model report against
    // a vector-kernel-model report of the same workload. The vector
    // model retires far fewer instructions in the SIMD-converted cost
    // kernels (SAD/SATD/DCT/quant), so the cycle delta must concentrate
    // in the families those kernels map to.
    auto reportData = [](codec::KernelModel kernels,
                         obs::HotspotReport* out) {
        const codec::BuildScope build({}, kernels);
        const AttributedRun run =
            attributedTranscode("medium", "funny", 0.1);
        obs::HotspotReport report;
        obs::mergeAttribution(&report, *run.model);
        std::string err;
        ASSERT_TRUE(obs::parseReport(report.toJson(), out, &err)) << err;
    };
    obs::HotspotReport scalar;
    obs::HotspotReport vec;
    reportData(codec::KernelModel::Scalar, &scalar);
    reportData(codec::KernelModel::Vector, &vec);

    const obs::ReportDiff diff = obs::diffReports(scalar, vec);
    // Vectorization is a win: fewer instructions, fewer cycles.
    EXPECT_LT(diff.totals.deltaCycles(), 0);
    EXPECT_LT(diff.totals.deltaInstructions(), 0);
    ASSERT_FALSE(diff.by_family.empty());
    const std::string& top = diff.by_family.front().name;
    EXPECT_TRUE(top == "motion estimation" || top == "transform/quant")
        << "top cycle-delta family: " << top;
}

// --------------------------------------------------------------- spans

TEST(Spans, ScopedRecordsWallSpansWithArgs)
{
    obs::SpanTracer tracer;
    {
        obs::SpanTracer::Scoped span(&tracer, "test", "stage");
        span.arg("k", "v");
    }
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].category, "test");
    EXPECT_EQ(spans[0].name, "stage");
    EXPECT_GE(spans[0].dur_us, 0.0);
    ASSERT_EQ(spans[0].args.size(), 1u);
    EXPECT_EQ(spans[0].args[0].first, "k");

    // Null tracer: Scoped is a no-op, not a crash.
    obs::SpanTracer::Scoped noop(nullptr, "test", "ignored");
    noop.arg("k", "v");
}

TEST(Spans, ConcurrentThreadsBufferIndependently)
{
    // Many threads record concurrently; nothing is lost, and each
    // thread's spans stay in its own order. Run under TSan by
    // tools/check.sh.
    obs::SpanTracer tracer;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tracer, t] {
            for (int i = 0; i < kPerThread; ++i) {
                obs::Span span;
                span.category = "stress";
                span.name = std::to_string(t);
                span.ts_us = static_cast<double>(i);
                tracer.recordComplete(std::move(span));
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(),
              static_cast<size_t>(kThreads) * kPerThread);
    // Per-thread monotonicity survives the concurrency: for each name,
    // timestamps appear in recording order.
    std::map<std::string, double> last;
    for (const auto& span : spans) {
        auto it = last.find(span.name);
        if (it != last.end()) {
            EXPECT_GT(span.ts_us, it->second);
        }
        last[span.name] = span.ts_us;
    }
    EXPECT_EQ(last.size(), static_cast<size_t>(kThreads));

    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(Spans, ChromeTraceExportIsValidJson)
{
    obs::SpanTracer tracer;
    tracer.setTrackName(1, 2, "server be_op1#0");
    obs::Span x;
    x.category = "farm";
    x.name = "attempt \"quoted\"";
    x.tid = 2;
    x.ts_us = 10.0;
    x.dur_us = 5.0;
    x.args = {{"job", "1"}};
    tracer.recordComplete(std::move(x));
    obs::Span b;
    b.kind = obs::Span::Kind::AsyncBegin;
    b.category = "farm";
    b.name = "queue";
    b.id = 7;
    tracer.recordEvent(std::move(b));
    obs::Span i;
    i.kind = obs::Span::Kind::Instant;
    i.category = "farm";
    i.name = "shed";
    tracer.recordEvent(std::move(i));

    std::string err;
    auto v = obs::parseJson(tracer.toChromeTrace(), &err);
    ASSERT_NE(v, nullptr) << err;
    const obs::JsonValue* events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // Metadata + three records.
    ASSERT_EQ(events->array().size(), 4u);
    EXPECT_EQ(events->array()[0].strOr("ph", ""), "M");
    EXPECT_EQ(events->array()[1].strOr("ph", ""), "X");
    EXPECT_EQ(events->array()[1].strOr("name", ""), "attempt \"quoted\"");
    EXPECT_EQ(events->array()[2].strOr("ph", ""), "b");
    EXPECT_DOUBLE_EQ(events->array()[2].numberOr("id", -1.0), 7.0);
    EXPECT_EQ(events->array()[3].strOr("ph", ""), "i");
}

TEST(Spans, CounterEventsRenderNumericArgs)
{
    obs::SpanTracer tracer;
    obs::Span c;
    c.category = "uarch";
    c.name = "topdown";
    c.pid = 9;
    c.tid = 3;
    c.ts_us = 2.5;
    c.values = {{"retiring", 0.5}, {"frontend", 0.25}};
    c.args = {{"label", "x"}}; // String args coexist with the series.
    tracer.recordCounter(std::move(c));
    obs::Span bad;
    bad.category = "uarch";
    bad.name = "rates";
    bad.values = {{"ipc", std::nan("")}}; // Clamped to 0, not emitted raw.
    tracer.recordCounter(std::move(bad));

    std::string err;
    auto v = obs::parseJson(tracer.toChromeTrace(), &err);
    ASSERT_NE(v, nullptr) << err;
    const obs::JsonValue* events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array().size(), 2u);

    const obs::JsonValue& topdown = events->array()[0];
    EXPECT_EQ(topdown.strOr("ph", ""), "C");
    EXPECT_EQ(topdown.strOr("name", ""), "topdown");
    EXPECT_DOUBLE_EQ(topdown.numberOr("pid", -1.0), 9.0);
    EXPECT_DOUBLE_EQ(topdown.numberOr("ts", -1.0), 2.5);
    const obs::JsonValue* args = topdown.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->numberOr("retiring", -1.0), 0.5);
    EXPECT_DOUBLE_EQ(args->numberOr("frontend", -1.0), 0.25);
    EXPECT_EQ(args->strOr("label", ""), "x");

    const obs::JsonValue* rates = events->array()[1].find("args");
    ASSERT_NE(rates, nullptr);
    EXPECT_DOUBLE_EQ(rates->numberOr("ipc", -1.0), 0.0);
}

/** Parses a farm trace and checks job-lifecycle span consistency. */
void
validateFarmTrace(const std::string& json)
{
    std::string err;
    auto v = obs::parseJson(json, &err);
    ASSERT_NE(v, nullptr) << err;
    const obs::JsonValue* events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    struct Interval
    {
        double ts;
        double dur;
    };
    std::map<int, std::vector<Interval>> per_server; // tid -> attempts
    std::map<int, double> queue_begin;               // job id -> ts
    std::map<int, double> first_attempt;             // job id -> ts
    size_t attempts = 0;
    for (const auto& e : events->array()) {
        const std::string ph = e.strOr("ph", "");
        const std::string name = e.strOr("name", "");
        if (ph == "X" && name == "attempt") {
            ++attempts;
            const int tid = static_cast<int>(e.numberOr("tid", -1));
            EXPECT_GE(tid, 1); // Attempt spans live on server tracks.
            per_server[tid].push_back(
                {e.numberOr("ts", -1.0), e.numberOr("dur", -1.0)});
            const obs::JsonValue* args = e.find("args");
            ASSERT_NE(args, nullptr);
            const int job = std::atoi(args->strOr("job", "-1").c_str());
            const double ts = e.numberOr("ts", 0.0);
            auto it = first_attempt.find(job);
            if (it == first_attempt.end() || ts < it->second) {
                first_attempt[job] = ts;
            }
        } else if (ph == "b" && name == "queue") {
            queue_begin[static_cast<int>(e.numberOr("id", -1))] =
                e.numberOr("ts", 0.0);
        }
    }
    EXPECT_GT(attempts, 0u);

    // Attempts on one server never overlap: the replayed schedule keeps
    // each server serial in simulated time.
    for (auto& [tid, intervals] : per_server) {
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval& a, const Interval& b) {
                      return a.ts < b.ts;
                  });
        for (size_t i = 1; i < intervals.size(); ++i) {
            EXPECT_GE(intervals[i].ts + 1e-6,
                      intervals[i - 1].ts + intervals[i - 1].dur)
                << "overlapping attempts on track " << tid;
        }
    }

    // A job's queue wait ends no later than its first attempt starts.
    for (const auto& [job, begin] : queue_begin) {
        auto it = first_attempt.find(job);
        ASSERT_NE(it, first_attempt.end()) << "job " << job;
        EXPECT_LE(begin, it->second + 1e-6);
    }
}

TEST(Spans, FarmTraceExportsConsistentJobLifecycles)
{
    farm::FarmOptions options = fastFarmOptions(2);
    options.fault_rate = 0.25; // Exercise retry/backoff spans too.
    farm::Farm service(options);
    for (const auto& req : smallJobStream(6, 1)) {
        service.submit(req);
    }
    service.drain();
    EXPECT_GT(service.spans().size(), 0u);

    const std::string path =
        ::testing::TempDir() + "/vtrans_farm_trace_test.json";
    ASSERT_TRUE(service.writeTrace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    validateFarmTrace(buffer.str());
    std::remove(path.c_str());
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesAndHistograms)
{
    obs::MetricsRegistry reg;
    reg.counter("test_events_total", "events").inc();
    reg.counter("test_events_total", "events").inc(4);
    EXPECT_EQ(reg.counter("test_events_total", "events").value(), 5u);

    reg.gauge("test_depth", "depth").set(3.5);
    EXPECT_DOUBLE_EQ(reg.gauge("test_depth", "depth").value(), 3.5);

    auto& h = reg.histogram("test_latency_seconds", "latency");
    for (double v : {4.0, 1.0, 3.0, 2.0}) {
        h.observe(v);
    }
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
    // Same percentile semantics as the farm run log.
    EXPECT_DOUBLE_EQ(h.percentile(50.0),
                     farm::RunLog::percentile({4.0, 1.0, 3.0, 2.0}, 50.0));
}

TEST(Metrics, PrometheusExpositionFormat)
{
    obs::MetricsRegistry reg;
    reg.counter("jobs_total", "Jobs processed").inc(7);
    reg.gauge("queue_depth", "Current backlog").set(2);
    reg.histogram("latency_seconds", "Service latency").observe(0.5);

    const std::string text = reg.exposition();
    EXPECT_NE(text.find("# HELP jobs_total Jobs processed"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE jobs_total counter"), std::string::npos);
    EXPECT_NE(text.find("jobs_total 7"), std::string::npos);
    EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE latency_seconds summary"),
              std::string::npos);
    EXPECT_NE(text.find("latency_seconds{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("latency_seconds_sum"), std::string::npos);
    EXPECT_NE(text.find("latency_seconds_count 1"), std::string::npos);
}

TEST(Metrics, HistogramStaysBoundedUnderSustainedObserve)
{
    // A long-running farm service observes() forever; the histogram must
    // not grow without bound. Count and sum stay exact; the retained
    // sample set caps at kMaxSamples (deterministic reservoir), keeping
    // percentiles sane estimates of the full stream.
    obs::MetricsRegistry reg;
    auto& h = reg.histogram("soak_latency_seconds", "soak");
    constexpr uint64_t kObservations = 100000;
    double sum = 0.0;
    for (uint64_t i = 0; i < kObservations; ++i) {
        const double v = static_cast<double>(i % 1000);
        h.observe(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), kObservations);
    EXPECT_DOUBLE_EQ(h.sum(), sum);
    EXPECT_EQ(h.retained(), obs::Histogram::kMaxSamples);
    // Values cycle uniformly over [0, 999]; the reservoir keeps every
    // observation equally likely, so the median lands near 500 (the
    // fixed Rng seed makes this deterministic, the band is just slack).
    const double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 400.0);
    EXPECT_LE(p50, 600.0);
    // Exposition still renders (count reflects the full stream).
    EXPECT_NE(reg.exposition().find("soak_latency_seconds_count 100000"),
              std::string::npos);
}

TEST(Metrics, HistogramExactBelowReservoirThreshold)
{
    obs::MetricsRegistry reg;
    auto& h = reg.histogram("small_hist", "exact");
    for (int i = 99; i >= 0; --i) {
        h.observe(static_cast<double>(i));
    }
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.retained(), 100u);
    // Below the cap nothing is sampled away: exact percentiles, same
    // semantics as farm::RunLog::percentile.
    std::vector<double> values(100);
    for (int i = 0; i < 100; ++i) {
        values[i] = static_cast<double>(i);
    }
    EXPECT_DOUBLE_EQ(h.percentile(90.0),
                     farm::RunLog::percentile(values, 90.0));
}

TEST(Metrics, FarmDrainRecordsServiceMetrics)
{
    obs::metrics().reset();
    farm::Farm service(fastFarmOptions(1));
    for (const auto& req : smallJobStream(3, 0)) {
        service.submit(req);
    }
    service.drain();
    const std::string text = obs::metrics().exposition();
    EXPECT_NE(text.find("farm_jobs_submitted_total 3"), std::string::npos);
    EXPECT_NE(text.find("farm_jobs_completed_total 3"), std::string::npos);
    EXPECT_NE(text.find("farm_makespan_sim_seconds"), std::string::npos);
    EXPECT_NE(text.find("farm_job_latency_sim_seconds_count 3"),
              std::string::npos);
    EXPECT_NE(text.find("pool_tasks_total"), std::string::npos);
    obs::metrics().reset();
}

// -------------------------------------------------- artifact validation

std::string
readFileOrEmpty(const char* path)
{
    std::ifstream in(path);
    if (!in.good()) {
        return "";
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * tools/check.sh exports a Chrome trace from a bench run and points
 * VTRANS_TRACE_JSON at it; this case is the parser/validator (no
 * external JSON tooling in the image).
 */
TEST(ArtifactValidation, ChromeTraceFileParses)
{
    const char* path = std::getenv("VTRANS_TRACE_JSON");
    if (path == nullptr) {
        GTEST_SKIP() << "VTRANS_TRACE_JSON not set";
    }
    const std::string text = readFileOrEmpty(path);
    ASSERT_FALSE(text.empty()) << "cannot read " << path;
    std::string err;
    auto v = obs::parseJson(text, &err);
    ASSERT_NE(v, nullptr) << err;
    const obs::JsonValue* events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_FALSE(events->array().empty());
    for (const auto& e : events->array()) {
        EXPECT_TRUE(e.isObject());
        EXPECT_FALSE(e.strOr("ph", "").empty());
    }
}

/** The attribution report read as plain JSON (VTRANS_UARCH_JSON). */
TEST(ArtifactValidation, HotspotReportFileParses)
{
    const char* path = std::getenv("VTRANS_UARCH_JSON");
    if (path == nullptr) {
        GTEST_SKIP() << "VTRANS_UARCH_JSON not set";
    }
    const std::string text = readFileOrEmpty(path);
    ASSERT_FALSE(text.empty()) << "cannot read " << path;
    std::string err;
    auto v = obs::parseJson(text, &err);
    ASSERT_NE(v, nullptr) << err;
    EXPECT_GT(v->find("totals")->numberOr("instructions", 0.0), 0.0);
    const obs::JsonValue* families = v->find("by_family");
    ASSERT_NE(families, nullptr);
    ASSERT_TRUE(families->isArray());
    EXPECT_FALSE(families->array().empty());
    ASSERT_NE(v->find("by_site"), nullptr);
    EXPECT_FALSE(v->find("by_site")->array().empty());
}

/** The µarch attribution JSON exported by --uarch-report-out
 *  (VTRANS_UARCH_JSON): must load as a report with cycle totals. */
TEST(ArtifactValidation, UarchReportFileParses)
{
    const char* path = std::getenv("VTRANS_UARCH_JSON");
    if (path == nullptr) {
        GTEST_SKIP() << "VTRANS_UARCH_JSON not set";
    }
    const std::string text = readFileOrEmpty(path);
    ASSERT_FALSE(text.empty()) << "cannot read " << path;
    obs::HotspotReport data;
    std::string err;
    ASSERT_TRUE(obs::parseReport(text, &data, &err)) << err;
    EXPECT_GT(data.totals().cycles, 0u);
    EXPECT_GT(data.totals().instructions, 0u);
    EXPECT_FALSE(data.byFamily().empty());
    EXPECT_FALSE(data.bySite().empty());
    // A self-diff of the artifact must align every row and cancel.
    const obs::ReportDiff self = obs::diffReports(data, data);
    EXPECT_EQ(self.totals.deltaCycles(), 0);
}

/** The phase time-series trace exported with --phase-window
 *  (VTRANS_PHASE_TRACE_JSON): must contain Chrome counter events with
 *  numeric series on the phase pid. */
TEST(ArtifactValidation, PhaseTraceFileHasCounterEvents)
{
    const char* path = std::getenv("VTRANS_PHASE_TRACE_JSON");
    if (path == nullptr) {
        GTEST_SKIP() << "VTRANS_PHASE_TRACE_JSON not set";
    }
    const std::string text = readFileOrEmpty(path);
    ASSERT_FALSE(text.empty()) << "cannot read " << path;
    std::string err;
    auto v = obs::parseJson(text, &err);
    ASSERT_NE(v, nullptr) << err;
    const obs::JsonValue* events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    size_t counters = 0;
    for (const auto& e : events->array()) {
        if (e.strOr("ph", "") != "C") {
            continue;
        }
        ++counters;
        EXPECT_DOUBLE_EQ(e.numberOr("pid", -1.0),
                         static_cast<double>(obs::kPhaseTrackPid));
        ASSERT_NE(e.find("args"), nullptr);
        EXPECT_TRUE(e.find("args")->isObject());
    }
    EXPECT_GT(counters, 0u);
}

} // namespace
} // namespace vtrans
