#ifndef VTRANS_LAYOUT_RELAYOUT_H_
#define VTRANS_LAYOUT_RELAYOUT_H_

/**
 * @file
 * Feedback-directed code relayout — the AutoFDO stand-in (paper §III-B3).
 *
 * Two classic mechanisms, both driven by the collected profile:
 *  1. Pettis-Hansen basic-block chaining: blocks that execute
 *     consecutively are merged into chains along the heaviest successor
 *     edges; chains are packed contiguously, hottest first. This shrinks
 *     the hot code's L1i/iTLB footprint (cold padding no longer
 *     interleaves it).
 *  2. Branch-polarity alignment: a branch whose hot direction is "taken"
 *     is inverted so the hot successor becomes the fall-through,
 *     eliminating taken-branch redirect bubbles on the hot path.
 *
 * The pass returns a `trace::CodeLayout` value and changes nothing else;
 * a run simulates it through `core::RunConfig::binary`.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layout/profile.h"

namespace vtrans::layout {

/** Options for the relayout pass. */
struct RelayoutOptions
{
    /** Alignment of each placed block (bytes). */
    uint32_t block_align = 16;
    /** Flip branches whose taken-fraction exceeds this threshold. */
    double invert_threshold = 0.5;
    /** Blocks colder than this fraction of the hottest block are packed
     *  into a separate cold region after the hot chains. */
    double cold_fraction = 1e-4;
};

/** The optimized layout and a summary of what it changed. */
struct RelayoutResult
{
    /// One placement per site registered when the pass ran.
    std::shared_ptr<const trace::CodeLayout> layout;
    uint64_t hot_bytes = 0;     ///< Bytes in the packed hot region.
    uint64_t cold_bytes = 0;    ///< Bytes in the trailing cold region.
    int chains = 0;             ///< Chains formed by Pettis-Hansen merging.
    int inverted_branches = 0;  ///< Branch sites whose polarity flipped.
    uint64_t span_before = 0;   ///< Address span of the default layout.
    uint64_t span_after = 0;    ///< Address span of the optimized layout.
};

/** Lays out every registered code site according to the profile (new
 *  addresses and branch polarities). The registry is not touched. */
RelayoutResult applyProfileGuidedLayout(const ProfileCollector& profile,
                                        const RelayoutOptions& options = {});

/** Renders a short human-readable summary of a relayout. */
std::string describe(const RelayoutResult& result);

} // namespace vtrans::layout

#endif // VTRANS_LAYOUT_RELAYOUT_H_
