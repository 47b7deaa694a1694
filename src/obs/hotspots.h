#ifndef VTRANS_OBS_HOTSPOTS_H_
#define VTRANS_OBS_HOTSPOTS_H_

/**
 * @file
 * Hotspot reporting: the software analogue of the paper's VTune hotspot
 * analysis (§III-B) joined with its Top-down view. Where VTune samples a
 * PMU and maps IPs back to functions, vtrans reads the per-site tallies
 * the core timing model keeps when CoreParams::attribute_sites is on
 * (obs::mergeAttribution folds a finished model in), and rolls leaf
 * sites up into hierarchical prefixes and codec kernel families
 * ("motion estimation", "entropy coding", ...).
 *
 * A block retires `site.instructions` instructions, and each branch,
 * load, and store retires one more, so per-site instruction totals sum
 * to the model's `CoreStats::instructions` counter bit-for-bit.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "uarch/core.h"

namespace vtrans::obs {

/**
 * Tallies of one code site (or rollup bucket): the model's per-site
 * uarch::SiteUarch plus the two fields derived from the site's static
 * shape when a model is merged, and the derived per-site metrics.
 */
struct SiteCounters : uarch::SiteUarch
{
    uint64_t instructions = 0; ///< Retired instructions (model-exact).
    uint64_t code_bytes = 0;   ///< Code bytes fetched (site bytes × blocks).

    void merge(const SiteCounters& other);

    // Derived per-site metrics (0 when the inputs are missing).
    double cpi() const;           ///< cycles / instructions.
    uint64_t slotsTotal() const;  ///< Sum of the five slot classes.
    double branchMpki() const     ///< Mispredicts per kilo-instruction.
    {
        return uarch::perKilo(branch_mispredicts, instructions);
    }
    double l1dMpki() const { return uarch::perKilo(l1d_misses, instructions); }
    double l2Mpki() const { return uarch::perKilo(l2_misses, instructions); }
    double l3Mpki() const { return uarch::perKilo(l3_misses, instructions); }
    double l1iMpki() const { return uarch::perKilo(l1i_misses, instructions); }
};

/** SiteCounters's counters in the order HotspotReport::toJson() writes
 *  them: the model's uarch::kSiteUarchCounters with `instructions` first
 *  and `code_bytes` after `blocks`. */
inline constexpr auto kSiteCounters = [] {
    std::array<uarch::Counter<SiteCounters>,
               std::size(uarch::kSiteUarchCounters) + 2>
        out{};
    size_t n = 0;
    out[n++] = {"instructions", &SiteCounters::instructions};
    for (const uarch::Counter<uarch::SiteUarch>& c :
         uarch::kSiteUarchCounters) {
        out[n++] = {c.name, c.member};
        if (c.member == &uarch::SiteUarch::blocks) {
            out[n++] = {"code_bytes", &SiteCounters::code_bytes};
        }
    }
    return out;
}();

/** One row of a hotspot table: a name (site / prefix / family) + tallies. */
struct HotspotRow
{
    std::string name;
    SiteCounters counters;
};

/**
 * Maps a site name to its codec kernel family, mirroring the paper's
 * function-level hotspot grouping of x264: SAD/SATD cost kernels belong
 * to motion estimation (their dominant caller), sub-pel filters to
 * interpolation, CABAC/bitstream to entropy coding, and so on.
 */
std::string kernelFamily(const std::string& site_name);

/**
 * Aggregated hotspot totals across runs and threads.
 *
 * Thread-safe: worker threads merge their finished per-run models
 * concurrently through mergeAttribution; parseReport (obs/diff.h) reads
 * a written report back. Totals and rollups are computed on demand from
 * the per-site tallies, so a loaded report groups by the same rules as
 * a merged one.
 */
class HotspotReport
{
  public:
    /** Per-site rows sorted by instructions, descending. */
    std::vector<HotspotRow> bySite() const;

    /** Rows rolled up by leading name component ("me.sad.row" → "me.*"),
     *  sorted by instructions descending. */
    std::vector<HotspotRow> byPrefix() const;

    /** Rows rolled up by kernelFamily(), sorted by instructions desc. */
    std::vector<HotspotRow> byFamily() const;

    /** Grand totals (including the unattributed bucket). */
    SiteCounters totals() const;

    /** True if any event has been merged. */
    bool empty() const;

    /** VTune-hotspots-style text table of the top `limit` rows per
     *  rollup level (family, prefix, leaf site), with instruction
     *  percentages against the grand total. */
    std::string table(size_t limit = 10) const;

    /** VTune-style µarch attribution table: cycles, CPI, the five
     *  Top-down slot shares, and MPKIs per row, sorted by cycles
     *  descending — the paper's "hotspot function × µarch signature"
     *  view. */
    std::string uarchTable(size_t limit = 10) const;

    /** The full report as a JSON document (totals + all three rollups). */
    std::string toJson() const;

    /** Writes toJson() to `path`; false (not fatal) on I/O failure. */
    bool writeJson(const std::string& path) const;

    /** Clears all merged tallies. */
    void reset();

  private:
    // The two ways in (declared and documented in obs/uarch.h and
    // obs/diff.h).
    friend void mergeAttribution(HotspotReport* report,
                                 const uarch::CoreModel& model, size_t cls);
    friend bool parseReport(const std::string& json, HotspotReport* out,
                            std::string* error);

    std::map<std::string, SiteCounters> snapshot() const;

    mutable std::mutex mu_;
    std::map<std::string, SiteCounters> by_name_;
    SiteCounters unattributed_;
};

/** Process-wide report that instrumented runs merge into when hotspot
 *  collection is enabled (see setHotspotsEnabled). */
HotspotReport& hotspotReport();

/** Turns process-wide hotspot collection on/off (default off). This is
 *  the same flag as setUarchAttributionEnabled (obs/uarch.h): either
 *  name makes instrumented runs set CoreParams::attribute_sites and
 *  merge the finished model into hotspotReport(). */
void setHotspotsEnabled(bool enabled);

/** True when instrumented runs should attribute to sites. */
bool hotspotsEnabled();

} // namespace vtrans::obs

#endif // VTRANS_OBS_HOTSPOTS_H_
