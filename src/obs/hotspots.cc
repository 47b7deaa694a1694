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
    for (const uarch::Counter<SiteCounters>& c : kSiteCounters) {
        this->*c.member += other.*c.member;
    }
}

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

double
slotShare(uint64_t slots, uint64_t total)
{
    return total == 0 ? 0.0
                      : static_cast<double>(slots)
                            / static_cast<double>(total);
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
        for (uint64_t uarch::SiteUarch::*slots :
             {&uarch::SiteUarch::slots_retiring,
              &uarch::SiteUarch::slots_frontend,
              &uarch::SiteUarch::slots_bad_spec,
              &uarch::SiteUarch::slots_backend_memory,
              &uarch::SiteUarch::slots_backend_core}) {
            t->cell(formatPercent(slotShare(c.*slots, c.slotsTotal())));
        }
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
    const char* sep = "";
    for (const uarch::Counter<SiteCounters>& f : kSiteCounters) {
        *os << sep << "\"" << f.name << "\":" << c.*f.member;
        sep = ",";
    }
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
    const uint64_t total_instructions = totals().instructions;
    std::ostringstream os;
    auto section = [&](const std::string& title, const char* name_header,
                       const std::vector<HotspotRow>& rows, bool last) {
        Table t({name_header, "instructions", "share", "blocks", "branches",
                 "loads", "stores", "ld bytes", "st bytes"});
        appendRows(&t, rows, limit, total_instructions);
        os << title << "\n" << t.toText() << (last ? "" : "\n");
    };
    section("hotspots by kernel family", "kernel family", byFamily(), false);
    section("hotspots by site prefix", "site prefix", byPrefix(), false);
    section("hotspots by code site (top " + std::to_string(limit) + ")",
            "code site", bySite(), true);
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
