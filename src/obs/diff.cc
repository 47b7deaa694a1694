#include "obs/diff.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "common/table.h"
#include "obs/json.h"

namespace vtrans::obs {

namespace {

bool
fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

/** Reads every counter of kSiteCounters present in `obj` (`where` names
 *  the object in errors), exactly: counters are written as integer
 *  literals, so anything else — a string, a fraction, an exponent, a
 *  negative or a value past 2^64 — is a malformed report, not a value to
 *  round or clamp. */
bool
parseCounters(const JsonValue& obj, const std::string& where,
              SiteCounters* out, std::string* error)
{
    for (const uarch::Counter<SiteCounters>& c : kSiteCounters) {
        const JsonValue* v = obj.find(c.name);
        if (v == nullptr) {
            continue;
        }
        if (!v->integer(&(out->*c.member))) {
            return fail(error, where + ": \"" + c.name
                                   + "\" is not an integer in [0, 2^64)");
        }
    }
    return true;
}

} // namespace

bool
parseReport(const std::string& json, HotspotReport* out, std::string* error)
{
    const std::unique_ptr<JsonValue> doc = parseJson(json, error);
    if (doc == nullptr) {
        return false;
    }
    if (!doc->isObject()) {
        return fail(error, "report is not a JSON object");
    }
    const JsonValue* rows = doc->find("by_site");
    if (rows == nullptr || !rows->isArray()) {
        return fail(error, "report has no \"by_site\" array");
    }
    std::map<std::string, SiteCounters> by_name;
    for (size_t i = 0; i < rows->array().size(); ++i) {
        const JsonValue& row = rows->array()[i];
        const std::string where = "by_site row " + std::to_string(i);
        if (!row.isObject()) {
            return fail(error, where + " is not an object");
        }
        const JsonValue* name = row.find("name");
        if (name == nullptr || !name->isString()) {
            return fail(error, where + ": \"name\" is not a string");
        }
        SiteCounters counters;
        if (!parseCounters(row, where, &counters, error)) {
            return false;
        }
        by_name[name->str()].merge(counters);
    }
    SiteCounters unattributed;
    if (const JsonValue* un = doc->find("unattributed"); un != nullptr) {
        if (!un->isObject()) {
            return fail(error, "\"unattributed\" is not an object");
        }
        if (!parseCounters(*un, "unattributed", &unattributed, error)) {
            return false;
        }
    }
    std::lock_guard<std::mutex> lock(out->mu_);
    out->by_name_ = std::move(by_name);
    out->unattributed_ = unattributed;
    return true;
}

bool
loadReport(const std::string& path, HotspotReport* out, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        return fail(error, "cannot open " + path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseReport(buf.str(), out, error);
}

namespace {

std::vector<DiffRow>
diffRows(const std::vector<HotspotRow>& baseline,
         const std::vector<HotspotRow>& candidate)
{
    std::map<std::string, DiffRow> aligned;
    for (const HotspotRow& row : baseline) {
        DiffRow& d = aligned[row.name];
        d.name = row.name;
        d.baseline.merge(row.counters);
    }
    for (const HotspotRow& row : candidate) {
        DiffRow& d = aligned[row.name];
        d.name = row.name;
        d.candidate.merge(row.counters);
    }
    std::vector<DiffRow> rows;
    rows.reserve(aligned.size());
    for (auto& [name, row] : aligned) {
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const DiffRow& a, const DiffRow& b) {
                  const int64_t ac = std::llabs(a.deltaCycles());
                  const int64_t bc = std::llabs(b.deltaCycles());
                  if (ac != bc) {
                      return ac > bc;
                  }
                  const int64_t ai = std::llabs(a.deltaInstructions());
                  const int64_t bi = std::llabs(b.deltaInstructions());
                  if (ai != bi) {
                      return ai > bi;
                  }
                  return a.name < b.name;
              });
    return rows;
}

void
appendDiffRows(Table* t, const std::vector<DiffRow>& rows, size_t limit)
{
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
        const DiffRow& row = rows[i];
        t->beginRow();
        t->cell(row.name);
        t->cell(row.baseline.cycles);
        t->cell(row.candidate.cycles);
        t->cell(row.deltaCycles());
        const double rel =
            row.baseline.cycles == 0
                ? 0.0
                : static_cast<double>(row.deltaCycles())
                      / static_cast<double>(row.baseline.cycles);
        t->cell(formatPercent(rel));
        t->cell(row.deltaInstructions());
        t->cell(row.baseline.cpi(), 2);
        t->cell(row.candidate.cpi(), 2);
    }
}

} // namespace

ReportDiff
diffReports(const HotspotReport& baseline, const HotspotReport& candidate)
{
    ReportDiff diff;
    diff.totals.name = "totals";
    diff.totals.baseline = baseline.totals();
    diff.totals.candidate = candidate.totals();
    diff.by_family = diffRows(baseline.byFamily(), candidate.byFamily());
    diff.by_prefix = diffRows(baseline.byPrefix(), candidate.byPrefix());
    diff.by_site = diffRows(baseline.bySite(), candidate.bySite());
    return diff;
}

std::string
diffTable(const ReportDiff& diff, size_t limit)
{
    std::ostringstream os;
    os << "totals: cycles " << diff.totals.baseline.cycles << " -> "
       << diff.totals.candidate.cycles << " ("
       << (diff.totals.deltaCycles() >= 0 ? "+" : "")
       << diff.totals.deltaCycles() << "), instructions "
       << diff.totals.baseline.instructions << " -> "
       << diff.totals.candidate.instructions << ", CPI "
       << formatDouble(diff.totals.baseline.cpi(), 3) << " -> "
       << formatDouble(diff.totals.candidate.cpi(), 3) << "\n\n";

    auto section = [&](const char* title, const char* name_header,
                       const std::vector<DiffRow>& rows, bool last) {
        Table t({name_header, "cycles (base)", "cycles (new)", "d-cycles",
                 "d-rel", "d-instr", "CPI base", "CPI new"});
        appendDiffRows(&t, rows, limit);
        os << title << "\n" << t.toText() << (last ? "" : "\n");
    };
    section("delta by kernel family", "kernel family", diff.by_family,
            false);
    section("delta by site prefix", "site prefix", diff.by_prefix, false);
    const std::string sites_title =
        "delta by code site (top " + std::to_string(limit) + ")";
    section(sites_title.c_str(), "code site", diff.by_site, true);
    return os.str();
}

} // namespace vtrans::obs
