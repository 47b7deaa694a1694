#ifndef VTRANS_OBS_DIFF_H_
#define VTRANS_OBS_DIFF_H_

/**
 * @file
 * Differential comparison of two exported hotspot/µarch reports
 * (HotspotReport::toJson documents): load both, align rows by name at
 * every rollup level, and rank per-site / per-family deltas — the
 * one-command answer to "where did the AVX2 kernels / preset change /
 * layout pass win?". Consumed by `tools/uarch_diff` and the benches'
 * `--uarch-baseline` flag.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "obs/hotspots.h"

namespace vtrans::obs {

/** Parses a HotspotReport::toJson() document into `out` (replacing its
 *  tallies): the `by_site` rows and the `unattributed` bucket, from which
 *  `out` recomputes the totals and rollups. A counter absent from a row
 *  (a report written before the field existed) loads as zero. False +
 *  `error` on malformed or wrongly-shaped input, naming the row and
 *  field: a counter that is not an integer literal in [0, 2^64), or a
 *  row whose name is not a string. */
bool parseReport(const std::string& json, HotspotReport* out,
                 std::string* error);

/** Reads `path` and parses it with parseReport. */
bool loadReport(const std::string& path, HotspotReport* out,
                std::string* error);

/** One aligned row of a differential comparison (candidate minus
 *  baseline; a row absent on one side compares against all-zero). */
struct DiffRow
{
    std::string name;
    SiteCounters baseline;
    SiteCounters candidate;

    int64_t deltaCycles() const
    {
        return static_cast<int64_t>(candidate.cycles)
               - static_cast<int64_t>(baseline.cycles);
    }

    int64_t deltaInstructions() const
    {
        return static_cast<int64_t>(candidate.instructions)
               - static_cast<int64_t>(baseline.instructions);
    }
};

/** A full differential report: totals plus the three rollup levels,
 *  each sorted by |cycle delta| (then |instruction delta|, then name)
 *  descending. */
struct ReportDiff
{
    DiffRow totals;
    std::vector<DiffRow> by_family;
    std::vector<DiffRow> by_prefix;
    std::vector<DiffRow> by_site;
};

/** Aligns `baseline` and `candidate` by row name at every level. */
ReportDiff diffReports(const HotspotReport& baseline,
                       const HotspotReport& candidate);

/** Text tables (family, prefix, top-`limit` sites) of the deltas:
 *  cycles and instructions on both sides, the deltas, the relative
 *  cycle change, and the CPI movement. */
std::string diffTable(const ReportDiff& diff, size_t limit = 12);

} // namespace vtrans::obs

#endif // VTRANS_OBS_DIFF_H_
