#include "obs/hotspots.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>

#include "common/table.h"

namespace vtrans::obs {

void
SiteCounters::merge(const SiteCounters& other)
{
    add(other);
    instructions += other.instructions;
    code_bytes += other.code_bytes;
}

namespace {

double
perKiloInstructions(uint64_t events, uint64_t instructions)
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(events)
                     / static_cast<double>(instructions);
}

double
slotShare(uint64_t slots, uint64_t total)
{
    return total == 0 ? 0.0
                      : static_cast<double>(slots)
                            / static_cast<double>(total);
}

} // namespace

double
SiteCounters::cpi() const
{
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles)
                                   / static_cast<double>(instructions);
}

uint64_t
SiteCounters::slotsTotal() const
{
    return slots_retiring + slots_frontend + slots_bad_spec
           + slots_backend_memory + slots_backend_core;
}

double
SiteCounters::retiringShare() const
{
    return slotShare(slots_retiring, slotsTotal());
}

double
SiteCounters::frontendShare() const
{
    return slotShare(slots_frontend, slotsTotal());
}

double
SiteCounters::badSpecShare() const
{
    return slotShare(slots_bad_spec, slotsTotal());
}

double
SiteCounters::backendMemoryShare() const
{
    return slotShare(slots_backend_memory, slotsTotal());
}

double
SiteCounters::backendCoreShare() const
{
    return slotShare(slots_backend_core, slotsTotal());
}

double
SiteCounters::branchMpki() const
{
    return perKiloInstructions(branch_mispredicts, instructions);
}

double
SiteCounters::l1dMpki() const
{
    return perKiloInstructions(l1d_misses, instructions);
}

double
SiteCounters::l2Mpki() const
{
    return perKiloInstructions(l2_misses, instructions);
}

double
SiteCounters::l3Mpki() const
{
    return perKiloInstructions(l3_misses, instructions);
}

double
SiteCounters::l1iMpki() const
{
    return perKiloInstructions(l1i_misses, instructions);
}

std::string
kernelFamily(const std::string& site_name)
{
    auto starts = [&site_name](const char* prefix) {
        return site_name.rfind(prefix, 0) == 0;
    };
    // SAD/SATD cost kernels are charged to motion estimation, their
    // dominant caller, as a sampling profiler with inlining does.
    if (starts("me.") || starts("pixel.sad") || starts("pixel.satd")) {
        return "motion estimation";
    }
    if (starts("pixel.mc") || starts("pixel.average")) {
        return "interpolation";
    }
    if (starts("dct.") || starts("trellis.")) {
        return "transform/quant";
    }
    if (starts("bitstream.") || starts("entropy.")) {
        return "entropy coding";
    }
    if (starts("deblock.")) {
        return "deblocking";
    }
    if (starts("intra.")) {
        return "intra prediction";
    }
    if (starts("lookahead.")) {
        return "lookahead";
    }
    if (starts("rc.")) {
        return "rate control";
    }
    if (starts("dec.")) {
        return "decode";
    }
    if (starts("enc.")) {
        return "macroblock encode";
    }
    const size_t dot = site_name.find('.');
    return dot == std::string::npos ? site_name : site_name.substr(0, dot);
}

namespace {

std::string
leadingPrefix(const std::string& site_name)
{
    const size_t dot = site_name.find('.');
    return dot == std::string::npos ? site_name
                                    : site_name.substr(0, dot) + ".*";
}

std::vector<HotspotRow>
sortedRows(std::map<std::string, SiteCounters> rollup)
{
    std::vector<HotspotRow> rows;
    rows.reserve(rollup.size());
    for (auto& [name, counters] : rollup) {
        rows.push_back(HotspotRow{name, counters});
    }
    std::sort(rows.begin(), rows.end(),
              [](const HotspotRow& a, const HotspotRow& b) {
                  if (a.counters.instructions != b.counters.instructions) {
                      return a.counters.instructions >
                             b.counters.instructions;
                  }
                  return a.name < b.name; // deterministic tie-break
              });
    return rows;
}

void
appendRows(Table* t, const std::vector<HotspotRow>& rows, size_t limit,
           uint64_t total_instructions)
{
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
        const HotspotRow& row = rows[i];
        t->beginRow();
        t->cell(row.name);
        t->cell(row.counters.instructions);
        const double share =
            total_instructions == 0
                ? 0.0
                : static_cast<double>(row.counters.instructions) /
                      static_cast<double>(total_instructions);
        t->cell(formatPercent(share));
        t->cell(row.counters.blocks);
        t->cell(row.counters.branches);
        t->cell(row.counters.loads);
        t->cell(row.counters.stores);
        t->cell(row.counters.load_bytes);
        t->cell(row.counters.store_bytes);
    }
}

/** Rows re-sorted by cycles descending (instructions, then name, break
 *  ties) for the µarch attribution view. */
std::vector<HotspotRow>
sortedByCycles(std::vector<HotspotRow> rows)
{
    std::sort(rows.begin(), rows.end(),
              [](const HotspotRow& a, const HotspotRow& b) {
                  if (a.counters.cycles != b.counters.cycles) {
                      return a.counters.cycles > b.counters.cycles;
                  }
                  if (a.counters.instructions != b.counters.instructions) {
                      return a.counters.instructions >
                             b.counters.instructions;
                  }
                  return a.name < b.name;
              });
    return rows;
}

void
appendUarchRows(Table* t, const std::vector<HotspotRow>& rows, size_t limit,
                uint64_t total_cycles)
{
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
        const SiteCounters& c = rows[i].counters;
        t->beginRow();
        t->cell(rows[i].name);
        t->cell(c.cycles);
        const double share =
            total_cycles == 0 ? 0.0
                              : static_cast<double>(c.cycles)
                                    / static_cast<double>(total_cycles);
        t->cell(formatPercent(share));
        t->cell(c.cpi(), 2);
        t->cell(formatPercent(c.retiringShare()));
        t->cell(formatPercent(c.frontendShare()));
        t->cell(formatPercent(c.badSpecShare()));
        t->cell(formatPercent(c.backendMemoryShare()));
        t->cell(formatPercent(c.backendCoreShare()));
        t->cell(c.branchMpki(), 2);
        t->cell(c.l1dMpki(), 2);
        t->cell(c.l2Mpki(), 2);
        t->cell(c.l3Mpki(), 2);
        t->cell(c.l1iMpki(), 2);
    }
}

void
appendCountersJson(std::ostringstream* os, const SiteCounters& c)
{
    *os << "\"instructions\":" << c.instructions
        << ",\"blocks\":" << c.blocks << ",\"code_bytes\":" << c.code_bytes
        << ",\"branches\":" << c.branches << ",\"taken\":" << c.taken
        << ",\"loads\":" << c.loads << ",\"stores\":" << c.stores
        << ",\"load_bytes\":" << c.load_bytes
        << ",\"store_bytes\":" << c.store_bytes
        << ",\"cycles\":" << c.cycles
        << ",\"slots_retiring\":" << c.slots_retiring
        << ",\"slots_frontend\":" << c.slots_frontend
        << ",\"slots_bad_spec\":" << c.slots_bad_spec
        << ",\"slots_backend_memory\":" << c.slots_backend_memory
        << ",\"slots_backend_core\":" << c.slots_backend_core
        << ",\"branch_mispredicts\":" << c.branch_mispredicts
        << ",\"l1d_accesses\":" << c.l1d_accesses
        << ",\"l1d_misses\":" << c.l1d_misses
        << ",\"l2_misses\":" << c.l2_misses
        << ",\"l3_misses\":" << c.l3_misses
        << ",\"l1i_accesses\":" << c.l1i_accesses
        << ",\"l1i_misses\":" << c.l1i_misses
        << ",\"itlb_misses\":" << c.itlb_misses
        << ",\"btb_misses\":" << c.btb_misses;
}

void
appendRowsJson(std::ostringstream* os, const char* key,
               const std::vector<HotspotRow>& rows)
{
    *os << "\"" << key << "\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) {
            *os << ",";
        }
        *os << "{\"name\":\"" << rows[i].name << "\",";
        appendCountersJson(os, rows[i].counters);
        *os << "}";
    }
    *os << "]";
}

} // namespace

std::map<std::string, SiteCounters>
HotspotReport::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return by_name_;
}

std::vector<HotspotRow>
HotspotReport::bySite() const
{
    return sortedRows(snapshot());
}

std::vector<HotspotRow>
HotspotReport::byPrefix() const
{
    std::map<std::string, SiteCounters> rollup;
    for (const auto& [name, counters] : snapshot()) {
        rollup[leadingPrefix(name)].merge(counters);
    }
    return sortedRows(std::move(rollup));
}

std::vector<HotspotRow>
HotspotReport::byFamily() const
{
    std::map<std::string, SiteCounters> rollup;
    for (const auto& [name, counters] : snapshot()) {
        rollup[kernelFamily(name)].merge(counters);
    }
    return sortedRows(std::move(rollup));
}

SiteCounters
HotspotReport::totals() const
{
    SiteCounters total;
    for (const auto& [name, counters] : snapshot()) {
        total.merge(counters);
    }
    std::lock_guard<std::mutex> lock(mu_);
    total.merge(unattributed_);
    return total;
}

bool
HotspotReport::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return by_name_.empty() && unattributed_.instructions == 0;
}

std::string
HotspotReport::table(size_t limit) const
{
    const SiteCounters total = totals();
    std::ostringstream os;

    Table families({"kernel family", "instructions", "share", "blocks",
                    "branches", "loads", "stores", "ld bytes", "st bytes"});
    appendRows(&families, byFamily(), limit, total.instructions);
    os << "hotspots by kernel family\n" << families.toText() << "\n";

    Table prefixes({"site prefix", "instructions", "share", "blocks",
                    "branches", "loads", "stores", "ld bytes", "st bytes"});
    appendRows(&prefixes, byPrefix(), limit, total.instructions);
    os << "hotspots by site prefix\n" << prefixes.toText() << "\n";

    Table sites({"code site", "instructions", "share", "blocks", "branches",
                 "loads", "stores", "ld bytes", "st bytes"});
    appendRows(&sites, bySite(), limit, total.instructions);
    os << "hotspots by code site (top " << limit << ")\n" << sites.toText();
    return os.str();
}

std::string
HotspotReport::uarchTable(size_t limit) const
{
    const SiteCounters total = totals();
    std::ostringstream os;
    const std::vector<std::string> headers = {
        "", "cycles", "share", "CPI", "retire", "frontend", "bad spec",
        "be-mem", "be-core", "brMPKI", "l1dMPKI", "l2MPKI", "l3MPKI",
        "l1iMPKI"};

    auto section = [&](const char* title, const char* name_header,
                       std::vector<HotspotRow> rows, bool last) {
        std::vector<std::string> h = headers;
        h[0] = name_header;
        Table t(h);
        appendUarchRows(&t, sortedByCycles(std::move(rows)), limit,
                        total.cycles);
        os << title << "\n" << t.toText() << (last ? "" : "\n");
    };
    section("uarch attribution by kernel family", "kernel family",
            byFamily(), false);
    section("uarch attribution by site prefix", "site prefix", byPrefix(),
            false);
    const std::string sites_title =
        "uarch attribution by code site (top " + std::to_string(limit) + ")";
    section(sites_title.c_str(), "code site", bySite(), true);
    return os.str();
}

std::string
HotspotReport::toJson() const
{
    const SiteCounters total = totals();
    std::ostringstream os;
    os << "{\"totals\":{";
    appendCountersJson(&os, total);
    os << "},";
    appendRowsJson(&os, "by_family", byFamily());
    os << ",";
    appendRowsJson(&os, "by_prefix", byPrefix());
    os << ",";
    appendRowsJson(&os, "by_site", bySite());
    os << ",\"unattributed\":{";
    {
        std::lock_guard<std::mutex> lock(mu_);
        appendCountersJson(&os, unattributed_);
    }
    os << "}}";
    return os.str();
}

bool
HotspotReport::writeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << toJson() << "\n";
    return static_cast<bool>(out.flush());
}

void
HotspotReport::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    by_name_.clear();
    unattributed_ = SiteCounters{};
}

namespace {
std::atomic<bool> g_hotspots_enabled{false};
} // namespace

HotspotReport&
hotspotReport()
{
    static HotspotReport report;
    return report;
}

void
setHotspotsEnabled(bool enabled)
{
    g_hotspots_enabled.store(enabled, std::memory_order_relaxed);
}

bool
hotspotsEnabled()
{
    return g_hotspots_enabled.load(std::memory_order_relaxed);
}

} // namespace vtrans::obs
