#ifndef VTRANS_TRACE_SITES_H_
#define VTRANS_TRACE_SITES_H_

/**
 * @file
 * The probe-site table: every code site of the virtual workload binary,
 * declared once, in default-layout order (trace/sites.def).
 *
 * The paper profiles one compiled binary, and code layout is a property
 * of that binary (§V's AutoFDO study). The table plays that role: the
 * site registry is built from it before any instrumented code can run,
 * so every site's id and default address are fixed at build time, and
 * no run, thread or kernel model can change them. Instrumented code
 * names its site by compile-time id (`VT_SITE(var, MeSeed)`).
 */

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace vtrans::trace {

/** Classifies what a code site represents. */
enum class SiteKind : uint8_t {
    Block,         ///< Straight-line code; no terminating conditional.
    BlockLoadDep,  ///< Straight-line code consuming just-loaded data.
    Branch,        ///< Ends in a conditional branch (direction is probed).
    BranchLoadDep, ///< Conditional branch whose condition depends on a load.
};

/** Compile-time site ids: a table row's index is its registry id. */
enum class SiteId : uint32_t {
#define VT_ROW(id, name, bytes, instructions, kind) id,
#include "trace/sites.def"
#undef VT_ROW
};

/** One row of the site table. */
struct SiteRow
{
    SiteId id;
    const char* name;      ///< Hierarchical name, e.g. "me.seed".
    uint32_t bytes;        ///< Declared static code size (unscaled).
    uint32_t instructions; ///< Non-memory, non-branch instructions.
    SiteKind kind;
};

/** The table, in default-layout order. */
inline constexpr SiteRow kSiteTable[] = {
#define VT_ROW(id, name, bytes, instructions, kind) \
    {SiteId::id, name, bytes, instructions, SiteKind::kind},
#include "trace/sites.def"
#undef VT_ROW
};

/** Number of table sites; synthetic (test) sites get ids from here on. */
inline constexpr size_t kTableSites = std::size(kSiteTable);

} // namespace vtrans::trace

#endif // VTRANS_TRACE_SITES_H_
