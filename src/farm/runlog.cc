#include "farm/runlog.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/stats.h"
#include "common/status.h"

namespace vtrans::farm {

namespace {

/** FNV-1a over the bytes of one 64-bit word. */
void
mix(uint64_t& h, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

void
mix(uint64_t& h, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(h, bits);
}

} // namespace

uint64_t
fingerprint(const core::RunResult& result)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const uarch::Counter<uarch::CoreStats>& c :
         uarch::kCoreStatsCounters) {
        mix(h, result.core.*c.member);
    }
    const auto& e = result.encode;
    mix(h, e.total_bits);
    mix(h, e.bitrate_kbps);
    mix(h, e.psnr);
    mix(h, static_cast<uint64_t>(e.i_frames));
    mix(h, static_cast<uint64_t>(e.p_frames));
    mix(h, static_cast<uint64_t>(e.b_frames));
    mix(h, e.mb_skip);
    mix(h, e.mb_inter16);
    mix(h, e.mb_inter8x8);
    mix(h, e.mb_intra16);
    mix(h, e.mb_intra4);
    mix(h, e.me_candidates);
    mix(h, result.transcode_seconds);
    mix(h, result.psnr);
    mix(h, result.bitrate_kbps);
    return h;
}

bool
JobRecord::deadlineMet() const
{
    if (state != JobState::Done || deadline <= 0.0) {
        return state == JobState::Done;
    }
    return finish <= deadline;
}

double
FarmMetrics::utilization(size_t server) const
{
    if (server >= server_busy.size() || makespan <= 0.0) {
        return 0.0;
    }
    return server_busy[server] / makespan;
}

void
RunLog::add(JobRecord record)
{
    records_.push_back(std::move(record));
}

const JobRecord&
RunLog::record(uint64_t job_id) const
{
    for (const auto& r : records_) {
        if (r.id == job_id) {
            return r;
        }
    }
    VT_FATAL("no run-log record for job ", job_id);
}

double
RunLog::percentile(std::vector<double> values, double p)
{
    return vtrans::percentile(std::move(values), p);
}

FarmMetrics
RunLog::metrics(const std::vector<Server>& fleet) const
{
    FarmMetrics m;
    m.server_busy.assign(fleet.size(), 0.0);
    m.server_jobs.assign(fleet.size(), 0);
    for (const auto& s : fleet) {
        m.server_names.push_back(s.name);
    }

    std::vector<double> latencies;
    double wait_total = 0.0;
    double err_total = 0.0;
    size_t err_count = 0;
    for (const auto& r : records_) {
        ++m.submitted;
        switch (r.state) {
          case JobState::Shed:
            ++m.shed;
            continue;
          case JobState::Failed:
            ++m.failed;
            break;
          case JobState::Done:
            ++m.completed;
            latencies.push_back(r.latency());
            if (!r.deadlineMet()) {
                ++m.deadline_misses;
            }
            break;
          default:
            break;
        }
        m.retries += r.attempts > 0 ? r.attempts - 1 : 0;
        wait_total += r.queue_wait;
        m.makespan = std::max(m.makespan, r.finish);
        if (r.server >= 0
            && static_cast<size_t>(r.server) < fleet.size()) {
            // Busy time of the *final* attempt; earlier attempts may have
            // run elsewhere and are folded into the retry count.
            m.server_busy[r.server] += r.actual_seconds;
            m.server_jobs[r.server] += 1;
        }
        if (r.state == JobState::Done && r.actual_seconds > 0.0) {
            err_total += std::abs(r.predicted_seconds - r.actual_seconds)
                         / r.actual_seconds;
            ++err_count;
        }
    }
    const size_t serviced = m.completed + m.failed;
    if (serviced > 0) {
        m.mean_queue_wait = wait_total / serviced;
    }
    if (!latencies.empty()) {
        double total = 0.0;
        for (double l : latencies) {
            total += l;
        }
        m.mean_latency = total / latencies.size();
        m.p50_latency = percentile(latencies, 50.0);
        m.p95_latency = percentile(latencies, 95.0);
        m.p99_latency = percentile(latencies, 99.0);
    }
    if (m.makespan > 0.0) {
        m.throughput = m.completed / m.makespan;
    }
    if (err_count > 0) {
        m.mean_prediction_error = err_total / err_count;
    }
    return m;
}

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out.push_back('\\');
            out.push_back(ch);
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out.push_back(ch);
        }
    }
    return out;
}

void
field(std::ostringstream& os, const char* name, const std::string& value,
      bool first = false)
{
    os << (first ? "" : ",") << '"' << name << "\":\"" << jsonEscape(value)
       << '"';
}

void
field(std::ostringstream& os, const char* name, double value)
{
    os << ",\"" << name << "\":" << formatDouble(value, 6);
}

void
field(std::ostringstream& os, const char* name, int64_t value)
{
    os << ",\"" << name << "\":" << value;
}

} // namespace

std::string
RunLog::toJsonl() const
{
    std::ostringstream os;
    for (const auto& r : records_) {
        std::ostringstream line;
        line << "{\"job\":" << r.id;
        field(line, "video", r.video);
        field(line, "preset", r.preset);
        field(line, "crf", static_cast<int64_t>(r.crf));
        field(line, "refs", static_cast<int64_t>(r.refs));
        field(line, "priority", static_cast<int64_t>(r.priority));
        field(line, "kind", r.kind);
        field(line, "parent_id", static_cast<int64_t>(r.parent_id));
        field(line, "chunk_index", static_cast<int64_t>(r.chunk_index));
        field(line, "chunk_count", static_cast<int64_t>(r.chunk_count));
        line << ",\"state\":\"" << toString(r.state) << '"';
        field(line, "server", static_cast<int64_t>(r.server));
        line << ",\"server_name\":\"" << jsonEscape(r.server_name) << '"';
        field(line, "attempts", static_cast<int64_t>(r.attempts));
        field(line, "submit", r.submit);
        field(line, "start", r.start);
        field(line, "finish", r.finish);
        field(line, "queue_wait", r.queue_wait);
        field(line, "deadline", r.deadline);
        line << ",\"deadline_met\":"
             << (r.deadlineMet() ? "true" : "false");
        field(line, "predicted_seconds", r.predicted_seconds);
        field(line, "actual_seconds", r.actual_seconds);
        field(line, "psnr", r.psnr);
        field(line, "bitrate_kbps", r.bitrate_kbps);
        field(line, "delta_psnr_db", r.delta_psnr_db);
        field(line, "delta_bitrate_kbps", r.delta_bitrate_kbps);
        field(line, "retiring", r.topdown.retiring);
        field(line, "frontend_bound", r.topdown.frontend);
        field(line, "bad_speculation", r.topdown.bad_speculation);
        field(line, "backend_memory", r.topdown.backend_memory);
        field(line, "backend_core", r.topdown.backend_core);
        line << ",\"fingerprint\":\"" << std::hex << r.result_fingerprint
             << std::dec << '"';
        line << ",\"cache_hit\":" << (r.cache_hit ? "true" : "false")
             << '}';
        os << line.str() << '\n';
    }
    return os.str();
}

bool
RunLog::writeJsonl(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << toJsonl();
    return static_cast<bool>(out.flush());
}

Table
RunLog::metricsTable(const std::vector<Server>& fleet) const
{
    const FarmMetrics m = metrics(fleet);
    Table t({"metric", "value"});
    auto row = [&](const std::string& name, const std::string& value) {
        t.beginRow();
        t.cell(name);
        t.cell(value);
    };
    row("jobs submitted", std::to_string(m.submitted));
    row("jobs completed", std::to_string(m.completed));
    row("jobs failed", std::to_string(m.failed));
    row("jobs shed", std::to_string(m.shed));
    row("retries", std::to_string(m.retries));
    row("deadline misses", std::to_string(m.deadline_misses));
    row("makespan (sim ms)", formatDouble(m.makespan * 1000.0, 3));
    row("throughput (jobs/sim s)", formatDouble(m.throughput, 2));
    row("mean latency (sim ms)", formatDouble(m.mean_latency * 1000.0, 3));
    row("p50 latency (sim ms)", formatDouble(m.p50_latency * 1000.0, 3));
    row("p95 latency (sim ms)", formatDouble(m.p95_latency * 1000.0, 3));
    row("p99 latency (sim ms)", formatDouble(m.p99_latency * 1000.0, 3));
    row("mean queue wait (sim ms)",
        formatDouble(m.mean_queue_wait * 1000.0, 3));
    row("mean |pred-actual|/actual",
        formatPercent(m.mean_prediction_error, 1));
    for (size_t s = 0; s < fleet.size(); ++s) {
        row("util " + m.server_names[s],
            formatPercent(m.utilization(s), 1) + " ("
                + std::to_string(m.server_jobs[s]) + " jobs)");
    }
    return t;
}

} // namespace vtrans::farm
