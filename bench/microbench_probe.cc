/**
 * @file
 * Probe-pipeline microbenchmark: events/sec through the probe bus at batch
 * capacities from 1 (a batch of one, delivered on every emit) up to 1024,
 * over two consumers of increasing weight —
 *
 *   count  a trivial counting sink (pure pipeline dispatch cost),
 *   model  uarch::CoreModel (the common instrumented-run configuration),
 *
 * on a deterministic synthetic event stream shaped like the codec's hot
 * kernels (macroblock row: block, loads, dependent block, store, early-exit
 * branch, loop branch). Every capacity's CoreStats are asserted
 * bit-identical to the batch-of-one baseline — the capacity amortizes
 * delivery, it never changes what a sink sees.
 *
 *   ./build/bench/microbench_probe [--events 4000000] [--reps 3]
 *       [--stream block|branch|mem|mixed] [--min-speedup 1.0]
 *       [--min-model-speedup 0] [--attr-overhead 0]
 *       [--out BENCH_probe.json] [--quiet]
 *
 * --stream selects the synthetic mix: `block` (pure basic-block
 * retirement — the dispatch fast-forward), `branch` (predictor-bound),
 * `mem` (loads/stores — caches, MSHR, store buffer), or the default
 * codec-shaped `mixed`. --min-model-speedup R (0 = off) runs the
 * model sink's event-driven fast-forward against the instruction-stepped
 * oracle (uarch::SteppingCore) in the same binary, asserts their
 * CoreStats are bit-identical, and fails below R x. --attr-overhead R
 * (0 = off) measures the model sink at the default batch with per-site
 * attribution on vs off (the median of --reps interleaved pairs),
 * asserts the CoreStats are identical (attribution is pure accounting),
 * and fails if the attributed run is more than R x slower. Attribution
 * is the whole --hotspots/--uarch-report cost: the model's per-site
 * tallies are the only hotspot accountant. --out writes the
 * machine-readable BENCH_probe.json consumed by tools/check.sh and
 * quoted in README.md.
 *
 * Exits non-zero if any identity check fails, if the count sink's
 * events/sec at the default batch falls below --min-speedup x its
 * batch-of-one rate, if attribution overhead exceeds --attr-overhead,
 * or if the consumer-bound model mode comes out slower than a batch of
 * one beyond timing noise. --reps must be at least 1.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/status.h"
#include "tests/test_site.h"
#include "trace/probe.h"
#include "uarch/config.h"
#include "uarch/core.h"
#include "uarch/stepping.h"

namespace {

using namespace vtrans;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Counts events and nothing else: the pipeline's floor cost. */
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
        // Fused block+branch records count as two events, matching the
        // onBlock + onBranch pair the default replay makes of them.
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

/** Probe calls emitted per emitStream() iteration (every stream kind). */
constexpr uint64_t kCallsPerIter = 8;

/** Which synthetic event mix to emit (--stream). */
enum class StreamKind
{
    Block,  ///< Pure basic-block retirement: the dispatch fast-forward.
    Branch, ///< Branch-dominated: the predictor hot path.
    Mem,    ///< Loads and stores: caches, MSHR, store buffer.
    Mixed,  ///< Codec-shaped mix of all of the above (the default).
};

const char*
streamName(StreamKind kind)
{
    switch (kind) {
      case StreamKind::Block:
        return "block";
      case StreamKind::Branch:
        return "branch";
      case StreamKind::Mem:
        return "mem";
      case StreamKind::Mixed:
        return "mixed";
    }
    return "mixed";
}

StreamKind
parseStream(const std::string& name)
{
    if (name == "block") {
        return StreamKind::Block;
    }
    if (name == "branch") {
        return StreamKind::Branch;
    }
    if (name == "mem") {
        return StreamKind::Mem;
    }
    if (name == "mixed") {
        return StreamKind::Mixed;
    }
    VT_FATAL("unknown --stream kind: ", name,
             " (known: block, branch, mem, mixed)");
}

/**
 * Emits `iters` iterations of a deterministic synthetic event stream,
 * kCallsPerIter probe calls each. `mixed` is the codec-shaped mix: an
 * ALU block, current+reference row loads, a load-dependent block, a
 * prediction store, a data-dependent early-exit branch, and a
 * mostly-taken loop branch, streaming through a 4 MiB frame with a
 * strided reference window so the cache model sees realistic hit/miss
 * behaviour. The single-flavour streams isolate one model subsystem
 * each (see StreamKind).
 */
void
emitStream(StreamKind kind, uint64_t iters)
{
    VT_TEST_SITE(site_alu, "mb.alu", 96, 12, Block);
    VT_TEST_SITE(site_dep, "mb.loaddep", 80, 10, BlockLoadDep);
    VT_TEST_SITE(site_early, "mb.early_exit", 12, 1, BranchLoadDep);
    VT_TEST_SITE(site_loop, "mb.loop", 12, 1, Branch);
    VT_TEST_SITE(site_blk2, "mb.blk2", 64, 7, Block);
    VT_TEST_SITE(site_blk3, "mb.blk3", 180, 19, Block);
    VT_TEST_SITE(site_br2, "mb.br2", 12, 1, Branch);

    constexpr uint64_t kCur = trace::SimArena::kHeapBase;
    constexpr uint64_t kRef = kCur + (4u << 20);
    constexpr uint64_t kDst = kRef + (4u << 20);
    constexpr uint64_t kFrameMask = (4u << 20) - 1;

    switch (kind) {
      case StreamKind::Block:
        // Retirement-dominated: a loop body of straight-line blocks.
        for (uint64_t i = 0; i < iters; ++i) {
            trace::block(site_alu);
            trace::block(site_blk2);
            trace::block(site_blk3);
            trace::block(site_alu);
            trace::block(site_blk2);
            trace::block(site_alu);
            trace::block(site_blk3);
            trace::block(site_alu);
        }
        return;
      case StreamKind::Branch:
        // Branch-dominated: learnable loop exits, a hard data-dependent
        // branch, and enough block work to keep dispatch moving.
        for (uint64_t i = 0; i < iters; ++i) {
            trace::block(site_alu);
            trace::branch(site_loop, (i & 7) != 7);
            trace::branch(site_br2, (i & 3) != 3);
            trace::branch(site_early,
                          ((i * 2654435761u) >> 27 & 31) == 0);
            trace::branch(site_loop, (i & 15) != 15);
            trace::branch(site_br2, ((i * 0x9e3779b9u) >> 28 & 7) < 3);
            trace::branch(site_loop, true);
            trace::branch(site_early, (i & 63) == 0);
        }
        return;
      case StreamKind::Mem:
        // Memory-dominated: streaming and strided loads plus a store
        // train, stressing the hierarchy, MSHR, and store buffer.
        for (uint64_t i = 0; i < iters; ++i) {
            const uint64_t row = (i * 64) & kFrameMask;
            const uint64_t ref = (i * 320 + ((i >> 4) * 8192)) & kFrameMask;
            trace::load(kCur + row, 16);
            trace::load(kRef + ref, 16);
            trace::load(kRef + ((ref + 4096) & kFrameMask), 16);
            trace::load(kCur + ((row + 64) & kFrameMask), 16);
            trace::load(kRef + ((ref + 64) & kFrameMask), 16);
            trace::store(kDst + row, 16);
            trace::store(kDst + ((row + 64) & kFrameMask), 16);
            trace::load(kRef + ((ref * 7) & kFrameMask), 16);
        }
        return;
      case StreamKind::Mixed:
        break;
    }
    for (uint64_t i = 0; i < iters; ++i) {
        const uint64_t row = (i * 64) & kFrameMask;
        const uint64_t ref = (i * 192 + ((i >> 5) * 4096)) & kFrameMask;
        trace::block(site_alu);
        trace::load(kCur + row, 16);
        trace::load(kRef + ref, 16);
        trace::block(site_dep);
        trace::load(kRef + ((ref + 64) & kFrameMask), 16);
        trace::store(kDst + row, 16);
        // Data-shaped direction: mispredicts at a realistic few-percent
        // rate. Deterministic, so every mode sees the same stream.
        trace::branch(site_early, ((i * 2654435761u) >> 27 & 31) == 0);
        trace::branch(site_loop, (i & 7) != 7);
    }
}

/** One measured configuration: sink flavour x batch capacity. */
struct Measurement
{
    std::string sink;   ///< "count" / "model" / "oracle".
    uint32_t batch = 1; ///< Batch capacity (1 = a batch of one).
    double best_seconds = 0.0;
    double events_per_sec = 0.0;
    uarch::CoreStats stats;         ///< model and oracle modes.
    uint64_t counted = 0;           ///< count mode.
};

Measurement
runMode(const std::string& sink_kind, uint32_t batch, uint64_t iters,
        int reps, bool attribute = false,
        StreamKind stream = StreamKind::Mixed)
{
    Measurement m;
    m.sink = sink_kind;
    m.batch = batch;
    m.best_seconds = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
        uarch::CoreParams params = uarch::baselineConfig();
        params.attribute_sites = attribute;
        std::unique_ptr<uarch::CoreModel> model;
        std::unique_ptr<uarch::SteppingCore> oracle;
        CountingSink counter;
        trace::ProbeSink* sink = &counter;
        if (sink_kind == "model") {
            model = std::make_unique<uarch::CoreModel>(params);
            sink = model.get();
        } else if (sink_kind == "oracle") {
            oracle = std::make_unique<uarch::SteppingCore>(params);
            sink = oracle.get();
        }
        const auto t0 = Clock::now();
        trace::setSink(sink, batch);
        emitStream(stream, iters);
        trace::setSink(nullptr); // Flushes pending events.
        const double secs = secondsSince(t0);
        m.best_seconds = std::min(m.best_seconds, secs);
        if (rep == reps - 1) {
            // Stats are deterministic across reps; keep the last one.
            if (model != nullptr) {
                m.stats = model->finish();
            } else if (oracle != nullptr) {
                m.stats = oracle->finish();
            }
            m.counted = counter.events();
        }
    }
    m.events_per_sec =
        static_cast<double>(iters * kCallsPerIter) / m.best_seconds;
    return m;
}

/** Counter-by-counter CoreStats comparison; prints every mismatch. */
bool
statsIdentical(const uarch::CoreStats& a, const uarch::CoreStats& b,
               const std::string& label)
{
    bool ok = true;
    for (const uarch::Counter<uarch::CoreStats>& c :
         uarch::kCoreStatsCounters) {
        if (a.*c.member != b.*c.member) {
            std::fprintf(stderr,
                         "IDENTITY FAIL [%s] %s: %llu != %llu\n",
                         label.c_str(), c.name,
                         static_cast<unsigned long long>(a.*c.member),
                         static_cast<unsigned long long>(b.*c.member));
            ok = false;
        }
    }
    return ok;
}

} // namespace

void
printHelp(const char* prog)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Probe-pipeline microbenchmark: events/sec at batch capacities\n"
        "1..1024 over count/model sinks, with bit-identity checks.\n"
        "\n"
        "  --events N            probe calls per rep (default 4000000)\n"
        "  --reps N              timed repetitions, best-of (default 3,\n"
        "                        at least 1)\n"
        "  --stream KIND         synthetic event mix (default mixed):\n"
        "                          block   pure basic-block retirement\n"
        "                                  (dispatch fast-forward path)\n"
        "                          branch  branch-dominated (predictor)\n"
        "                          mem     loads/stores (caches, MSHR, SB)\n"
        "                          mixed   codec-shaped mix of all three\n"
        "  --min-speedup R       fail if the count sink at the default\n"
        "                        batch is < R x its batch-of-one rate\n"
        "  --min-model-speedup R fail if the model sink's event-driven\n"
        "                        fast-forward is < R x the\n"
        "                        instruction-stepped oracle (also\n"
        "                        asserts their CoreStats are bit-identical)\n"
        "  --attr-overhead R     fail if per-site attribution costs > R x\n"
        "                        (0 = skip; also asserts identity)\n"
        "  --out FILE            write machine-readable BENCH_probe.json\n"
        "  --quiet               suppress the per-capacity sweep lines\n",
        prog);
}

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    setVerbose(false);
    if (cli.has("help")) {
        printHelp(cli.program().c_str());
        return 0;
    }
    const uint64_t events =
        static_cast<uint64_t>(cli.num("events", 4000000));
    const uint64_t iters = std::max<uint64_t>(events / kCallsPerIter, 1);
    const int64_t reps_arg = cli.num("reps", 3);
    if (reps_arg < 1) {
        VT_FATAL("--reps must be at least 1, got ", reps_arg);
    }
    const int reps = static_cast<int>(reps_arg);
    const double min_speedup = cli.real("min-speedup", 1.0);
    const double min_model_speedup = cli.real("min-model-speedup", 0.0);
    const double attr_overhead = cli.real("attr-overhead", 0.0);
    const StreamKind stream = parseStream(cli.str("stream", "mixed"));
    const std::string out = cli.str("out", "");
    const bool quiet = cli.has("quiet");
    cli.rejectUnknown();
    const uint32_t default_batch = trace::kDefaultProbeBatch;

    const std::vector<uint32_t> capacities{1, 16, 64, 256, 1024};
    const std::vector<std::string> sinks{"count", "model"};

    // Warm up: register the synthetic sites and fault in the buffers.
    runMode("count", 1, std::min<uint64_t>(iters, 10000), 1, false, stream);
    if (!quiet) {
        std::printf("stream: %s\n", streamName(stream));
    }

    std::vector<Measurement> sweep;
    std::map<std::string, Measurement> batch_of_one;
    for (const auto& sink : sinks) {
        for (uint32_t batch : capacities) {
            Measurement m = runMode(sink, batch, iters, reps, false, stream);
            if (batch == 1) {
                batch_of_one[sink] = m;
            }
            if (!quiet) {
                std::printf("%-6s batch %-5u  %8.1f M events/s%s\n",
                            sink.c_str(), batch,
                            m.events_per_sec / 1e6,
                            batch == 1 ? "  (batch-of-one baseline)" : "");
            }
            sweep.push_back(std::move(m));
        }
    }

    // --- Identity: every capacity must match its batch-of-one baseline.
    bool identical = true;
    for (const auto& m : sweep) {
        if (m.batch == 1) {
            continue;
        }
        const Measurement& base = batch_of_one[m.sink];
        if (m.sink == "count") {
            if (m.counted != base.counted) {
                std::fprintf(stderr,
                             "IDENTITY FAIL [count] %llu != %llu events\n",
                             static_cast<unsigned long long>(m.counted),
                             static_cast<unsigned long long>(base.counted));
                identical = false;
            }
        } else {
            const std::string label =
                m.sink + " batch " + std::to_string(m.batch);
            identical &= statsIdentical(m.stats, base.stats, label);
        }
    }

    // --- Speedup at the shipped default capacity, per sink flavour.
    std::map<std::string, double> speedup;
    for (const auto& m : sweep) {
        if (m.batch == default_batch) {
            speedup[m.sink] =
                m.events_per_sec / batch_of_one[m.sink].events_per_sec;
        }
    }
    std::printf("\nspeedup at batch %u (vs batch of one): "
                "pipeline x%.2f, model x%.2f\n",
                default_batch, speedup["count"], speedup["model"]);
    std::printf("identity: %s\n", identical ? "OK (bit-identical)"
                                            : "FAILED");

    // --- Optional model-sink gate: the event-driven fast-forward vs the
    // instruction-stepped oracle (the reference of the JSON key), same
    // stream, same binary (so the ratio is machine-independent). The
    // two must be bit-identical; the fast-forward must be at least
    // --min-model-speedup x faster.
    double model_speedup_vs_reference = 0.0;
    if (min_model_speedup > 0.0) {
        const Measurement ref = runMode("oracle", default_batch, iters,
                                        reps, false, stream);
        const Measurement opt = runMode("model", default_batch, iters,
                                        reps, false, stream);
        model_speedup_vs_reference =
            opt.best_seconds > 0.0 ? ref.best_seconds / opt.best_seconds
                                   : 0.0;
        identical &= statsIdentical(opt.stats, ref.stats,
                                    "fast-forward vs stepping oracle");
        std::printf("model fast-forward vs stepping oracle: x%.2f "
                    "(required x%.2f)\n",
                    model_speedup_vs_reference, min_model_speedup);
    }

    // --- Optional attribution-overhead gate: the model sink at the
    // default batch with per-site attribution off vs on. Attribution is
    // pure accounting, so the CoreStats must not change at all; the
    // wall-clock slowdown must stay under --attr-overhead. Off and on
    // alternate rep by rep and the slowdown is the median per-pair
    // ratio, so a drift in host load reaches both arms of a pair alike
    // (best-of over back-to-back blocks of reps read anywhere from x0.74
    // to x1.37 on one binary).
    double attr_slowdown = 0.0;
    if (attr_overhead > 0.0) {
        std::vector<double> ratios;
        for (int rep = 0; rep < std::max(reps, 1); ++rep) {
            const Measurement off =
                runMode("model", default_batch, iters, 1, false, stream);
            const Measurement on =
                runMode("model", default_batch, iters, 1, true, stream);
            ratios.push_back(on.best_seconds / off.best_seconds);
            identical &= statsIdentical(on.stats, off.stats,
                                        "attribution on vs off");
        }
        std::sort(ratios.begin(), ratios.end());
        attr_slowdown = ratios[ratios.size() / 2];
        std::printf("attribution overhead (model, batch %u): x%.3f "
                    "(limit x%.3f)\n",
                    default_batch, attr_slowdown, attr_overhead);
    }

    // --- Machine-readable report (BENCH_probe.json).
    if (!out.empty()) {
        FILE* f = std::fopen(out.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", out.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"microbench_probe\",\n");
        std::fprintf(f, "  \"stream\": \"%s\",\n", streamName(stream));
        std::fprintf(f, "  \"events_per_rep\": %llu,\n",
                     static_cast<unsigned long long>(iters * kCallsPerIter));
        std::fprintf(f, "  \"reps\": %d,\n", reps);
        std::fprintf(f, "  \"default_batch\": %u,\n", default_batch);
        std::fprintf(f, "  \"identical\": %s,\n",
                     identical ? "true" : "false");
        std::fprintf(f, "  \"sweep\": [\n");
        for (size_t i = 0; i < sweep.size(); ++i) {
            std::fprintf(f,
                         "    {\"sink\": \"%s\", \"batch\": %u, "
                         "\"events_per_sec\": %.0f}%s\n",
                         sweep[i].sink.c_str(), sweep[i].batch,
                         sweep[i].events_per_sec,
                         i + 1 < sweep.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f,
                     "  \"speedup_at_default\": {\"pipeline\": %.3f, "
                     "\"model\": %.3f}",
                     speedup["count"], speedup["model"]);
        if (min_model_speedup > 0.0) {
            std::fprintf(f,
                         ",\n  \"model_speedup_vs_reference\": "
                         "{\"speedup\": %.3f, \"min_required\": %.3f}",
                         model_speedup_vs_reference, min_model_speedup);
        }
        if (attr_overhead > 0.0) {
            std::fprintf(f,
                         ",\n  \"attribution\": {\"slowdown\": %.3f, "
                         "\"max_allowed\": %.3f}",
                         attr_slowdown, attr_overhead);
        }
        std::fprintf(f, "\n}\n");
        std::fclose(f);
        std::printf("report: %s\n", out.c_str());
    }

    if (!identical) {
        return 1;
    }
    if (min_model_speedup > 0.0
        && model_speedup_vs_reference < min_model_speedup) {
        std::fprintf(stderr,
                     "MODEL SPEEDUP FAIL: fast-forward x%.3f < required "
                     "x%.3f vs the stepping oracle\n",
                     model_speedup_vs_reference, min_model_speedup);
        return 1;
    }
    if (attr_overhead > 0.0 && attr_slowdown > attr_overhead) {
        std::fprintf(stderr,
                     "ATTRIBUTION OVERHEAD FAIL: x%.3f > allowed x%.3f\n",
                     attr_slowdown, attr_overhead);
        return 1;
    }
    for (const auto& [sink, x] : speedup) {
        // --min-speedup gates the pure pipeline (count). The consumer-
        // bound model mode spends most of its time inside the consumer,
        // so its ratio sits near 1.0 and is noise-dominated (single-vCPU
        // jitter swung it between ~0.78 and ~1.13 run to run on the
        // default mix). Its floor only catches gross batching breakage,
        // and only on the default mix: the isolation streams exist to
        // measure the fast-forward ratio (--min-model-speedup). Fine-
        // grained delivery QA is the count gate and layerbench's ledger.
        if (sink != "count" && stream != StreamKind::Mixed) {
            continue;
        }
        const double floor = sink == "count" ? min_speedup : 0.75;
        if (x < floor) {
            std::fprintf(stderr,
                         "SPEEDUP FAIL: %s x%.3f < required x%.3f\n",
                         sink.c_str(), x, floor);
            return 1;
        }
    }
    return 0;
}
