#ifndef VTRANS_BENCH_BENCHUTIL_H_
#define VTRANS_BENCH_BENCHUTIL_H_

/**
 * @file
 * Shared helpers for the figure/table regeneration binaries: flag
 * handling, grid selection, and formatting. Every bench prints (1) the
 * rendered table/heatmap and (2) machine-readable CSV, so results can be
 * compared against the paper's figures directly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "codec/strategies/strategies.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/parallel.h"
#include "core/studies.h"
#include "obs/diff.h"
#include "obs/hotspots.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/uarch.h"

namespace vtrans::bench {

/** Common sweep options from the command line. */
struct BenchOptions
{
    core::StudyOptions study;
    std::vector<int> crf_grid;
    std::vector<int> refs_grid;

    bool hotspots = false;    ///< Print the hotspot table after the run.
    std::string hotspots_out; ///< Hotspot JSON report path ("" = none).
    std::string trace_out;    ///< Chrome trace JSON path ("" = none).
    bool metrics = false;     ///< Dump the Prometheus exposition.

    bool uarch_report = false;  ///< Print the µarch attribution table.
    std::string uarch_report_out; ///< Attribution JSON path ("" = none).
    std::string uarch_baseline; ///< Baseline JSON to diff against.
    uint64_t phase_window = 0;  ///< Phase sample window (instructions).
};

/**
 * Fixed-seed Zipf(s) rank sampler — the popularity model of a
 * repeat-heavy transcoding service, where a handful of titles dominate
 * the request stream. Rank 0 is the most popular item; rank k is drawn
 * with probability proportional to 1/(k+1)^s via inverse-CDF over the
 * precomputed cumulative weights, so sampling is O(log n) and the
 * sequence is a pure function of (n, s, seed) — deterministic across
 * platforms, shared verbatim by the sustained-load bench, the farm
 * example's --zipf-s mode, and the distribution sanity test.
 */
class ZipfSampler
{
  public:
    ZipfSampler(size_t items, double s, uint64_t seed)
        : rng_(seed), cdf_(items)
    {
        VT_ASSERT(items > 0, "Zipf needs at least one item");
        VT_ASSERT(s >= 0.0, "Zipf exponent must be >= 0, got ", s);
        double sum = 0.0;
        for (size_t k = 0; k < items; ++k) {
            sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_[k] = sum;
        }
        for (double& c : cdf_) {
            c /= sum;
        }
    }

    /** Draws the next rank in [0, items). */
    size_t next()
    {
        const double u = rng_.uniform();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        return std::min(rank, cdf_.size() - 1);
    }

    /**
     * Draws an exponential inter-arrival gap at `rate` requests per
     * simulated second (the Poisson arrival process the sustained-load
     * mode paces submissions with).
     */
    double nextArrivalGap(double rate)
    {
        VT_ASSERT(rate > 0.0, "arrival rate must be positive");
        return -std::log1p(-rng_.uniform()) / rate;
    }

    /** The exact sampling probability of a rank. */
    double probability(size_t rank) const
    {
        return cdf_.at(rank) - (rank == 0 ? 0.0 : cdf_[rank - 1]);
    }

    size_t items() const { return cdf_.size(); }

  private:
    Rng rng_;
    std::vector<double> cdf_; ///< Normalized cumulative popularity.
};

/**
 * The result-cache byte budget of `--cache-mb` (MiB, default 256), read
 * the same way by every farm binary. A negative value, or one whose
 * bytes do not fit a size_t, is fatal and names the flag.
 */
inline size_t
cacheBudgetBytes(const Cli& cli)
{
    constexpr int64_t kMaxMb =
        static_cast<int64_t>(std::numeric_limits<size_t>::max() >> 20);
    const int64_t mb = cli.num("cache-mb", 256);
    if (mb < 0 || mb > kMaxMb) {
        VT_FATAL("--cache-mb expects MiB in [0, ", kMaxMb, "], got ", mb);
    }
    return static_cast<size_t>(mb) << 20;
}

/** The tracer wall-time sweep spans land in when --trace-out is set. */
inline obs::SpanTracer&
benchTracer()
{
    static obs::SpanTracer tracer;
    return tracer;
}

/**
 * Parses the standard bench flags:
 *   --video <name>    sweep video (default "funny", a 1080p-class clip)
 *   --seconds <s>     clip length per point (default 0.8)
 *   --jobs <n>        worker threads for the sweep (default 1 = serial;
 *                     0 = hardware concurrency)
 *   --coarse          6x5 grid (fast preview)
 *   --fine            11x8 grid (crf Delta-5, 88 points)
 *   --full            the paper's full 816-point grid
 *   --quiet           suppress progress
 *   --kernels <isa>   kernel backend: scalar, sse41, avx2 or auto
 *                     (default from VTRANS_KERNEL_ISA, else auto; every
 *                     backend is bit-identical)
 *   --kernel-model <m> simulated kernel cost model: scalar (default,
 *                     bit-identical fingerprints) or vector (SIMD-form
 *                     probe sites, see trace/sites.def)
 * Observability (see observabilityReport()):
 *   --hotspots        collect + print the VTune-style hotspot table
 *   --hotspots-out <p> collect + write the hotspot report as JSON
 *   --trace-out <p>   export sweep stage spans as Chrome trace JSON
 *   --metrics         dump the Prometheus-style metrics exposition
 *   --uarch-report    per-site µarch attribution (cycles/top-down/MPKI
 *                     per code site); prints the attribution table
 *   --uarch-report-out <p> write the attribution report as JSON (the
 *                     format tools/uarch_diff and --uarch-baseline read)
 *   --uarch-baseline <p> after the run, diff this baseline JSON report
 *                     against the run's report and print the deltas
 *   --phase-window <n> sample attributed counters every n retired
 *                     instructions into "C" counter events on the
 *                     Chrome trace (use with --trace-out)
 * Default grid: 8x5 (40 points).
 */
inline BenchOptions
parseBenchOptions(const Cli& cli)
{
    BenchOptions options;
    options.study.video = cli.str("video", "funny");
    options.study.seconds = cli.real("seconds", 0.8);
    options.study.jobs = static_cast<int>(cli.num("jobs", 1));
    options.study.verbose = !cli.has("quiet");
    setVerbose(!cli.has("quiet"));

    // Kernel backend (bit-identical across values) and simulated cost
    // model (vector is the opt-in SIMD-form probe model; each point's
    // RunConfig::binary carries it).
    const std::string kernels = cli.str("kernels", "");
    if (!kernels.empty() && !codec::setKernelIsa(kernels)) {
        VT_FATAL("--kernels must be scalar, sse41, avx2 or auto (and "
                 "supported by this CPU); got ", kernels);
    }
    const std::string kernel_model = cli.str("kernel-model", "");
    if (!kernel_model.empty()
        && !codec::parseKernelModel(kernel_model, &options.study.kernels)) {
        VT_FATAL("--kernel-model must be scalar or vector; got ",
                 kernel_model);
    }

    if (cli.has("full")) {
        options.crf_grid = core::fullCrfGrid();
        options.refs_grid = core::fullRefsGrid();
    } else if (cli.has("fine")) {
        options.crf_grid = core::defaultCrfGrid();
        options.refs_grid = core::defaultRefsGrid();
    } else if (cli.has("coarse")) {
        options.crf_grid = {1, 11, 21, 31, 41, 51};
        options.refs_grid = {1, 2, 4, 8, 16};
    } else {
        options.crf_grid = {1, 8, 15, 22, 29, 36, 43, 50};
        options.refs_grid = {1, 2, 4, 8, 16};
    }

    options.hotspots = cli.has("hotspots");
    options.hotspots_out = cli.str("hotspots-out", "");
    options.trace_out = cli.str("trace-out", "");
    options.metrics = cli.has("metrics");
    options.uarch_report = cli.has("uarch-report");
    options.uarch_report_out = cli.str("uarch-report-out", "");
    options.uarch_baseline = cli.str("uarch-baseline", "");
    const int64_t phase = cli.num("phase-window", 0);
    options.phase_window = phase <= 0 ? 0 : static_cast<uint64_t>(phase);
    if (options.hotspots || !options.hotspots_out.empty()) {
        obs::setHotspotsEnabled(true);
    }
    if (options.uarch_report || !options.uarch_report_out.empty()
        || !options.uarch_baseline.empty()) {
        obs::setUarchAttributionEnabled(true);
    }
    obs::setPhaseWindow(options.phase_window);
    if (!options.trace_out.empty() || options.phase_window > 0) {
        obs::setGlobalTracer(&benchTracer());
    }
    return options;
}

/** Prints a section banner. */
inline void
banner(const std::string& title)
{
    std::printf("\n==== %s ====\n\n", title.c_str());
}

/**
 * Prints the wall-clock report of a pool-executed sweep: wall time,
 * serial-equivalent cost (the sum of per-point wall times), and the
 * measured speedup. `busy_seconds / wall_seconds` is what a serial run
 * of the same points would have cost, so the speedup is measured, not
 * estimated.
 */
inline void
sweepReport(const core::SweepStats& stats)
{
    std::printf("\nsweep: %zu points on %d worker%s in %.2fs wall "
                "(serial-equivalent %.2fs, speedup x%.2f)\n",
                stats.points, stats.jobs, stats.jobs == 1 ? "" : "s",
                stats.wall_seconds, stats.busy_seconds, stats.speedup());
}

/**
 * Emits whatever observability output the flags requested: the hotspot
 * table (--hotspots), the hotspot JSON report (--hotspots-out), the
 * Chrome trace of the sweep's stage spans (--trace-out), and the
 * Prometheus metrics exposition (--metrics). Call once, after the
 * bench's sweeps have run. Export failures are reported, not fatal —
 * the bench's results have already been printed.
 */
inline void
observabilityReport(const BenchOptions& options)
{
    if (options.hotspots) {
        banner("hotspots");
        std::printf("%s\n", obs::hotspotReport().table().c_str());
    }
    if (!options.hotspots_out.empty()) {
        if (obs::hotspotReport().writeJson(options.hotspots_out)) {
            std::printf("hotspot report: %s\n",
                        options.hotspots_out.c_str());
        } else {
            std::printf("hotspot report NOT written (cannot open %s)\n",
                        options.hotspots_out.c_str());
        }
    }
    if (!options.trace_out.empty()) {
        obs::setGlobalTracer(nullptr);
        if (benchTracer().writeChromeTrace(options.trace_out)) {
            std::printf("chrome trace: %s (%zu spans)\n",
                        options.trace_out.c_str(), benchTracer().size());
        } else {
            std::printf("chrome trace NOT written (cannot open %s)\n",
                        options.trace_out.c_str());
        }
    }
    if (options.uarch_report) {
        banner("uarch attribution");
        std::printf("%s\n", obs::hotspotReport().uarchTable().c_str());
    }
    if (!options.uarch_report_out.empty()) {
        if (obs::hotspotReport().writeJson(options.uarch_report_out)) {
            std::printf("uarch attribution report: %s\n",
                        options.uarch_report_out.c_str());
        } else {
            std::printf("uarch report NOT written (cannot open %s)\n",
                        options.uarch_report_out.c_str());
        }
    }
    if (!options.uarch_baseline.empty()) {
        obs::ReportData baseline;
        obs::ReportData current;
        std::string error;
        if (!obs::loadReport(options.uarch_baseline, &baseline, &error)) {
            std::printf("uarch baseline NOT loaded (%s)\n", error.c_str());
        } else if (!obs::parseReport(obs::hotspotReport().toJson(),
                                     &current, &error)) {
            std::printf("uarch diff NOT computed (%s)\n", error.c_str());
        } else {
            banner("uarch diff vs baseline (this run minus baseline)");
            std::printf(
                "%s\n",
                obs::diffTable(obs::diffReports(baseline, current))
                    .c_str());
        }
    }
    if (options.metrics) {
        banner("metrics");
        std::printf("%s", obs::metrics().exposition().c_str());
    }
}

} // namespace vtrans::bench

#endif // VTRANS_BENCH_BENCHUTIL_H_
